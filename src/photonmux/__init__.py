"""Photon-number statistics of a temporally multiplexed heralded source.

The package models a continuously pumped pair source whose heralded photon is
actively delayed onto an external clock grid through a binary network of
lossy switches.  It provides the exact output photon-number distributions
under device imperfections (switch insertion loss, heralding efficiency,
dark counts), pump-rate optimization, figure-style parameter sweeps, and an
independent event-level Monte Carlo oracle that cross-validates the analytic
chain.
"""

from ._version import __version__
from .config import SourceConfig
from .stats import (
    DEFAULT_N_MAX,
    PhotonDistribution,
    TruncationError,
    ideal_distribution,
    mandel_q,
    poisson_pmf,
    snr,
)
from .losses import (
    LossChainTrace,
    heralded_distribution,
    output_chain,
    output_distribution,
    with_dark_counts,
)
from .optimize import OptimizationResult, max_p1_with_snr_floor, optimize_mu
from .montecarlo import McConfig, McHistogram, compare, simulate
from .sweeps import (
    ClockReport,
    SweepRecord,
    SweepTable,
    clock_report,
    figure2,
    figure3,
    figure4,
    figure5,
)

__all__ = [
    "__version__",
    "SourceConfig",
    "PhotonDistribution",
    "TruncationError",
    "DEFAULT_N_MAX",
    "poisson_pmf",
    "ideal_distribution",
    "mandel_q",
    "snr",
    "LossChainTrace",
    "heralded_distribution",
    "with_dark_counts",
    "output_distribution",
    "output_chain",
    "OptimizationResult",
    "optimize_mu",
    "max_p1_with_snr_floor",
    "McConfig",
    "McHistogram",
    "simulate",
    "compare",
    "SweepRecord",
    "SweepTable",
    "ClockReport",
    "clock_report",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
]
