"""Sampling tables and the deterministic random-stream layout.

Both simulator backends consume the same Philox stream, keyed by the seed
alone.  Trial t owns the words [t*S, (t+1)*S) of that stream, where S is the
per-trial slot count (3 per window plus one survival slot) rounded up to a
multiple of 4 so that any trial boundary is also a Philox block boundary.
Histograms therefore depend only on (config, trials, seed), never on worker
count, chunking or backend.

Per-trial slot order: pair-count uniforms for windows 0..W-1, then herald
uniforms, then dark-count uniforms, then one survival uniform, then padding.

Word j of trial t is lane j % 4 of the Philox4x64-10 block with counter
t*S/4 + j//4 + 1 (the upper three counter words zero) and key (seed, 0),
and its double is (x >> 11) * 2**-53, as ``Generator.random`` maps it.
This lets the C kernel, and the numpy backend on deep multiplexers,
compute only the blocks they need.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..config import SourceConfig
from ..stats import _lgamma_cache, poisson_vector

__all__ = ["SamplingTables", "build_tables", "slots_per_trial", "philox_at_trial"]

# Hard cap on the per-window pair count; the inverse-CDF saturates here.  At
# the largest supported pump rates the probability mass beyond the cap is far
# below 2^-53 per draw.
PAIR_COUNT_CAP = 128


def _binomial_matrix(n_max: int, p: float) -> np.ndarray:
    """Binomial loss matrix B[n, k] = C(n, k) p^k (1-p)^(n-k) for n, k = 0..n_max.

    Row n is the distribution of survivors among n photons that each survive
    independently with probability ``p``.  Only ``_survival_cdf`` calls it,
    at n_max = PAIR_COUNT_CAP, and that CDF is what is cached; its
    (n_max+1)^2 arrays would grow to gigabytes at the analytic chain's
    largest bounds, so it is not public.
    """
    if p == 1.0:
        out = np.eye(n_max + 1)
    elif p == 0.0:
        out = np.zeros((n_max + 1, n_max + 1))
        out[:, 0] = 1.0
    else:
        n = np.arange(n_max + 1)[:, None]
        k = n.T
        lg = _lgamma_cache(n_max + 1)
        log_comb = lg[n] - lg[k] - lg[np.maximum(n - k, 0)]
        log_b = log_comb + k * math.log(p) + (n - k) * math.log1p(-p)
        # k > n gets (n - k) log1p(-p) > 0, which overflows exp as p nears 1.
        log_b[k > n] = -np.inf
        out = np.exp(log_b)
    return out


@functools.lru_cache(maxsize=32)
def _survival_cdf(p: float) -> np.ndarray:
    """Cumulative Binomial(n, p) rows for n = 0..PAIR_COUNT_CAP, each exactly
    1.0 at and beyond its own n, so that the inversion can never yield more
    survivors than input photons.

    Cached per transmission ``p`` and returned read-only, because the
    tables of one configuration are rebuilt by every ``simulate`` call.
    """
    cap = PAIR_COUNT_CAP
    out = np.minimum(np.cumsum(_binomial_matrix(cap, p), axis=1), 1.0)
    n = np.arange(cap + 1)
    out[n[None, :] >= n[:, None]] = 1.0
    out.setflags(write=False)
    return out


def slots_per_trial(n_windows: int) -> int:
    """Stream words reserved per trial (padded to a Philox block boundary)."""
    raw = 3 * n_windows + 1
    return (raw + 3) & ~3


def philox_at_trial(seed: int, trial_index: int, n_windows: int) -> np.random.Generator:
    """Generator positioned at the first stream word of ``trial_index``."""
    bitgen = np.random.Philox(key=np.uint64(seed))
    offset_words = trial_index * slots_per_trial(n_windows)
    if offset_words % 4:
        raise AssertionError("trial boundaries must be block aligned")
    bitgen.advance(offset_words // 4)
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class SamplingTables:
    """Inverse-CDF tables shared by the C kernel and the numpy backend."""

    pair_cdf: np.ndarray       # cumulative Poisson(mu), length cap+1
    herald_prob: np.ndarray    # P(>=1 idler click | n pairs), length cap+1
    survival_cdf: np.ndarray   # (cap+1, cap+1) cumulative Binomial(n, e_s_total)
    p_dark: float
    n_windows: int

    def silent_probability(self) -> float:
        """The chance that a window neither heralds nor fires a dark count."""
        pair_pmf = np.diff(self.pair_cdf, prepend=0.0)
        return float(pair_pmf @ (1.0 - self.herald_prob)) * (1.0 - self.p_dark)


def build_tables(cfg: SourceConfig) -> SamplingTables:
    mu = cfg.mu
    cap = PAIR_COUNT_CAP
    cum = np.cumsum(poisson_vector(mu, cap))
    if 1.0 - float(cum[-2]) > 1e-12:
        raise ValueError(f"pump rate mu={mu} too large for the pair-count cap {cap}")
    pair_cdf = np.minimum(cum, 1.0)
    pair_cdf[-1] = 1.0

    n = np.arange(cap + 1)
    herald_prob = 1.0 - (1.0 - cfg.e_h) ** n

    return SamplingTables(
        pair_cdf=pair_cdf,
        herald_prob=herald_prob,
        survival_cdf=_survival_cdf(cfg.e_s_total),
        p_dark=cfg.p_dark,
        n_windows=cfg.n_windows,
    )
