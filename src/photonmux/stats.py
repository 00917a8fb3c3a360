"""Exact photon-number distributions of the ideal source and figures of merit.

The ideal multiplexed source emits, per clock period, a photon-number
distribution whose vacuum weight is the probability that no pair was created
anywhere in the synchronization interval, while the n >= 1 weights follow the
single-window Poisson statistics conditioned on at least one pair.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .config import SourceConfig, _check_int, _check_real

__all__ = [
    "DEFAULT_N_MAX",
    "N_MAX_LIMIT",
    "TAIL_LIMIT",
    "TruncationError",
    "PhotonDistribution",
    "poisson_vector",
    "poisson_rows",
    "ideal_distribution",
    "check_rows",
    "moment_rows",
    "mandel_q",
    "mandel_q_rows",
    "snr",
    "p1_rows",
    "snr_rows",
]

DEFAULT_N_MAX = 30
# The largest truncation bound accepted.  Only output_distribution passes its
# bound on to the loss chain, with one row, so the largest array there is
# (1, 20002), about 160 kB; a larger bound is rejected before anything of its
# size is allocated.
N_MAX_LIMIT = 10_000
# A distribution is rejected rather than renormalized when the estimated
# probability mass beyond n_max reaches this bound.
TAIL_LIMIT = 1e-9
_NORM_TOL = 1e-9


class TruncationError(ValueError):
    """Raised when the truncated representation would drop too much mass."""


def _check_n_max(n_max: int, low: int = 0) -> int:
    """``n_max`` as an int in [low, N_MAX_LIMIT], as :func:`config._check_int`
    gives it."""
    return _check_int(n_max, "n_max", low, N_MAX_LIMIT)


def poisson_vector(mu: float, n_max: int) -> np.ndarray:
    """Poisson pmf for n = 0..n_max as a vector, log-space evaluation."""
    return poisson_rows(np.array([float(_check_real(mu, "mu"))]), _check_n_max(n_max))[0]


def poisson_rows(mu: np.ndarray, n_max: int) -> np.ndarray:
    """Poisson pmf for n = 0..n_max, one row per entry of ``mu``.

    The caller guarantees finite ``mu >= 0``; a zero pump gives the vacuum row.
    """
    n = np.arange(n_max + 1)
    pumped = mu.all()
    log_mu = np.log(mu if pumped else np.where(mu > 0, mu, 1.0))
    rows = np.exp(n * log_mu[:, None] - mu[:, None] - _lgamma_cache(n_max + 1))
    if not pumped:
        rows[mu == 0, 1:] = 0.0  # log(1) stood in for log(0) there
    return rows


_LGAMMA_TABLE = np.zeros(0)


def _lgamma_cache(size: int) -> np.ndarray:
    """lgamma(n+1) for n = 0..size-1, grown on demand."""
    global _LGAMMA_TABLE
    if _LGAMMA_TABLE.size < size:
        _LGAMMA_TABLE = np.array([math.lgamma(i + 1) for i in range(max(size, 64))])
    return _LGAMMA_TABLE[:size]


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution of the synchronized output window.

    ``probs[n]`` is the probability of n photons, for n = 0..n_max, where
    ``n_max`` is an integer in [0, N_MAX_LIMIT] (an integral real is stored
    as an int).
    ``tail_mass``, a real stored as a float, is the mass beyond the truncation
    bound; it must stay below :data:`TAIL_LIMIT` or construction fails loudly
    instead of renormalizing, which would silently bias multi-photon merits.
    ``config`` is the source configuration the distribution models, or None;
    ``montecarlo.compare`` refuses a histogram of another configuration.
    """

    probs: np.ndarray
    n_max: int
    tail_mass: float = 0.0
    config: Optional[SourceConfig] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "n_max", _check_n_max(self.n_max))
        if probs.ndim != 1:
            raise ValueError(f"probs must be one-dimensional, got shape {probs.shape}")
        if isinstance(self.tail_mass, bool) or not isinstance(self.tail_mass, numbers.Real):
            raise ValueError(f"tail_mass must be a real number, got {self.tail_mass!r}")
        object.__setattr__(self, "tail_mass", float(self.tail_mass))
        check_rows(probs[None], np.array([self.tail_mass]), self.n_max)
        if not (self.config is None or isinstance(self.config, SourceConfig)):
            raise ValueError("config must be a SourceConfig or None, "
                             f"got {type(self.config).__name__}")

    def p(self, n: int) -> float:
        """Probability of exactly n photons (0 beyond the truncation bound)."""
        return float(self.probs[n]) if 0 <= n <= self.n_max else 0.0

    def p_ge(self, k: int) -> float:
        """Probability of k or more photons, tail mass included."""
        if k <= 0:
            return 1.0
        return float(self.probs[k:].sum()) + self.tail_mass

    def mean(self) -> float:
        return float(moment_rows(self.probs[None])[0][0])

    def variance(self) -> float:
        return float(moment_rows(self.probs[None])[1][0])


def check_rows(probs: np.ndarray, tail: np.ndarray, n_max: int) -> None:
    """The checks of :class:`PhotonDistribution` on each row of ``probs``.

    ``probs`` has one distribution over n = 0..n_max per row and ``tail``
    their tail masses.  Every entry must lie in [0, 1] within 1e-12, every
    tail mass in [0, TAIL_LIMIT) within 1e-15, and each row with its tail
    must sum to 1 within _NORM_TOL; a NaN fails each of these.  The first
    failing row raises what ``PhotonDistribution(row, n_max, tail)`` raises
    for it.
    """
    if probs.ndim != 2:
        raise ValueError(f"probs must be two-dimensional, got shape {probs.shape}")
    if probs.shape[1] != n_max + 1:
        raise ValueError(f"probs must have length n_max+1 = {n_max + 1}, got {probs.shape[1]}")
    total = probs.sum(axis=1) + tail
    # Each test in accepting form, so that a NaN, which fails every comparison, fails it.
    outside = ~((probs >= -1e-12) & (probs <= 1.0 + 1e-12)).all(axis=1)
    faults = outside | ~(tail >= -1e-15)
    faults |= tail >= TAIL_LIMIT
    faults |= ~(np.abs(total - 1.0) <= _NORM_TOL)
    if not faults.any():
        return
    row = int(np.argmax(faults))
    if outside[row]:
        raise ValueError("probabilities must lie in [0, 1]")
    if not tail[row] >= -1e-15:
        raise ValueError(f"tail_mass must be >= 0, got {float(tail[row])}")
    if tail[row] >= TAIL_LIMIT:
        raise TruncationError(
            f"tail mass {tail[row]:.3e} beyond n_max={n_max} exceeds "
            f"{TAIL_LIMIT:.0e}; increase n_max"
        )
    raise ValueError(f"distribution does not normalize: sum={float(total[row])!r}")


def moment_rows(probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the photon number under each row of ``probs``,
    a pmf over n = 0..probs.shape[1]-1.

    The one evaluation behind ``PhotonDistribution.mean``, ``variance`` and
    :func:`mandel_q_rows`: the mean is computed once and reused for the
    variance.  ``np.vecdot`` takes each row's dot product as ``row.dot(n)``
    does, so a row's moments do not depend on the rows beside it.
    """
    n = np.arange(probs.shape[1], dtype=float)
    mean = np.vecdot(probs, n)
    return mean, np.vecdot(probs, n * n) - mean * mean


def _vacuum(n_max: int) -> PhotonDistribution:
    probs = np.zeros(n_max + 1)
    probs[0] = 1.0
    return PhotonDistribution(probs, n_max)


def ideal_distribution(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> PhotonDistribution:
    """Photon-number distribution of the lossless multiplexed source.

    The vacuum weight is the no-pair probability over the whole
    synchronization interval, ``P_0(mu_total)``; each n >= 1 weight is the
    single-window Poisson term renormalized to exclude vacuum and scaled by
    the herald probability ``1 - P_0(mu_total)``.

    Loss fields of ``cfg`` are ignored: this is the zero-imperfection limit.

    Parameters
    ----------
    cfg:
        Source configuration; only ``m`` and ``mu`` are used.
    n_max:
        Truncation bound, in [2, N_MAX_LIMIT].
    """
    n_max = _check_n_max(n_max, low=2)
    mu = cfg.mu
    if mu == 0.0:
        # Limit of the n >= 1 branch as mu -> 0: deterministic vacuum.
        return _vacuum(n_max)
    pois = poisson_vector(mu, n_max)
    herald_prob = -math.expm1(-cfg.mu_total)  # 1 - P_0(mu_total)
    nonvacuum = -math.expm1(-mu)              # 1 - P_0(mu)
    probs = np.empty(n_max + 1)
    probs[0] = math.exp(-cfg.mu_total)
    probs[1:] = herald_prob * pois[1:] / nonvacuum
    tail = herald_prob * max(0.0, nonvacuum - float(pois[1:].sum())) / nonvacuum
    return PhotonDistribution(probs, n_max, tail)


def mandel_q(dist: PhotonDistribution) -> float:
    """Mandel parameter (Var(n) - <n>) / <n> of a photon-number distribution.

    Zero for Poissonian light, -1 for a photon-number state; negative values
    indicate sub-poissonian statistics.
    """
    q = float(mandel_q_rows(dist.probs[None])[0])
    if math.isnan(q):
        raise ValueError("Mandel Q is undefined for the vacuum state (<n> = 0)")
    return q


def mandel_q_rows(probs: np.ndarray) -> np.ndarray:
    """Mandel Q of each row of ``probs`` as tables and optimizer results
    report it, NaN for the vacuum state.  :func:`mandel_q` reads it for one
    row and raises where it gives NaN."""
    mean, variance = moment_rows(probs)
    return np.divide(variance - mean, mean, out=np.full_like(mean, np.nan), where=mean > 0)


def snr(dist: PhotonDistribution) -> float:
    """Single-photon to multi-photon probability ratio, P_1 / P_>=2, as
    :func:`snr_rows` gives it for the one row of ``dist``."""
    return float(snr_rows(dist.probs[None], np.array([dist.tail_mass]))[1][0])


def p1_rows(probs: np.ndarray) -> np.ndarray:
    """P_1 of each row of ``probs``, as PhotonDistribution.p(1) reads it: 0
    in rows truncated at n = 0."""
    return probs[:, 1] if probs.shape[1] > 1 else np.zeros(len(probs))


def snr_rows(probs: np.ndarray, tail: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P_>=2 and the SNR P_1 / P_>=2 of each row of ``probs`` with its tail mass.

    P_>=2 is the k >= 2 weights plus the truncation tail, summed directly:
    1 - P_0 - P_1 would cancel at low pump rates.  A row with no
    multi-photon component at all has SNR +inf.
    """
    p_multi = probs[:, 2:].sum(axis=1) + tail
    ratio = np.divide(p1_rows(probs), p_multi, out=np.full_like(p_multi, np.inf),
                      where=~(p_multi <= 0.0))
    return p_multi, ratio
