"""Photon-number statistics of a temporally multiplexed heralded source.

The package models a continuously pumped pair source whose heralded photon is
actively delayed onto an external clock grid through a binary network of
lossy switches.  It provides the exact output photon-number distributions
under device imperfections (switch insertion loss, heralding efficiency,
dark counts), pump-rate optimization, figure-style parameter sweeps, and an
independent event-level Monte Carlo oracle that cross-validates the analytic
chain.

The analytic names load with the package.  The names of ``optimize``,
``montecarlo`` and ``sweeps`` load on first access (PEP 562), so a run
imports only the modules it uses.
"""

import importlib

from ._version import __version__
from .config import SourceConfig
from .stats import (
    DEFAULT_N_MAX,
    PhotonDistribution,
    TruncationError,
    ideal_distribution,
    mandel_q,
    snr,
)
from .losses import output_distribution

__all__ = [
    "__version__",
    "SourceConfig",
    "PhotonDistribution",
    "TruncationError",
    "DEFAULT_N_MAX",
    "ideal_distribution",
    "mandel_q",
    "snr",
    "output_distribution",
    "OptimizationResult",
    "optimize_mu",
    "max_p1_with_snr_floor",
    "McConfig",
    "McHistogram",
    "simulate",
    "compare",
    "SweepRecord",
    "SweepTable",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
]

# The module of each name that loads on first access.  Each of these
# modules loads on first access too, as an attribute of the package.
_LAZY = {
    **dict.fromkeys(("OptimizationResult", "optimize_mu", "max_p1_with_snr_floor"), "optimize"),
    **dict.fromkeys(("McConfig", "McHistogram", "simulate", "compare"), "montecarlo"),
    **dict.fromkeys(("SweepRecord", "SweepTable", "figure2", "figure3", "figure4", "figure5"),
                    "sweeps"),
}


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY.values()})
