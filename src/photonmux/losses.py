"""Imperfect-device chain: heralding loss, dark counts, signal-branch loss.

The chain is built constructively.  First the heralding-branch transmission
splits the output into a heralded part (at least one idler detected somewhere
in the synchronization interval) and an unheralded bypass part.  Dark counts
then shorten the effective interval: the first spurious click routes the
output early, which mixes the heralded expression over interval lengths.
Finally every photon in the routed window independently survives the signal
branch with the end-to-end transmission, a binomial loss channel.

One batched core, :func:`_herald_rows`, evaluates the herald and dark-count
stages for a whole pump grid; the scalar entry points are batches of one and
share the binomial loss matrix of :func:`photonmux.stats.binomial_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import SourceConfig
from .stats import (
    DEFAULT_N_MAX,
    TAIL_LIMIT,
    PhotonDistribution,
    TruncationError,
    binomial_matrix,
    ideal_distribution,
    poisson_rows,
)

__all__ = [
    "LossChainTrace",
    "heralded_distribution",
    "with_dark_counts",
    "apply_signal_loss",
    "output_distribution",
    "output_chain",
    "p1_snr_curve",
]

_STAGE_LABELS = ("ideal", "heralded", "dark", "final")


@dataclass(frozen=True)
class LossChainTrace:
    """Intermediate distributions of the loss chain, for inspection.

    ``stages`` holds (label, distribution) pairs in fixed order:
    ideal, heralded, dark, final.
    """

    stages: Tuple[Tuple[str, PhotonDistribution], ...]

    def __post_init__(self) -> None:
        labels = tuple(label for label, _ in self.stages)
        if labels != _STAGE_LABELS:
            raise ValueError(f"stage labels must be {_STAGE_LABELS}, got {labels}")

    def __getitem__(self, label: str) -> PhotonDistribution:
        for name, dist in self.stages:
            if name == label:
                return dist
        raise KeyError(label)

    @property
    def final(self) -> PhotonDistribution:
        return self.stages[-1][1]


def _herald_rows(
    mu: np.ndarray,
    e_h: float,
    windows: int,
    p_dark: float,
    n_max: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Routed-window distribution before signal loss, one row per pump rate.

    Returns (rows, tail).  A window triggers when one of its idlers is
    detected (probability 1 - e^-a, a = mu e_h) or a dark count fires
    (P_dark); its trigger rate is c = a - ln(1 - P_dark).  The first trigger
    in the W-window interval routes that window, which holds a detected idler
    with probability (1 - e^-a) / (1 - e^-c); with no trigger the bypass
    window is routed.  Summing the first-trigger position over the interval,
    the geometric sum of the first-dark-count mixture over interval lengths,
    weights the clicked-window conditional by

        w = alpha (1 - e^-a),   alpha = (1 - e^(-W c)) / (1 - e^-c),

    and the no-click conditional by 1 - w.  The conditionals divide by their
    closed-form normalizations 1 - e^-a and e^-a, which the truncated sums
    reproduce to ~1e-16, so row n is P_n(mu) (alpha hit_n + beta miss_n) with
    beta = (1 - w) e^a.  Rows whose tail mass reaches TAIL_LIMIT raise
    TruncationError, naming the worst mu.
    """
    n = np.arange(n_max + 1)
    a = mu * e_h
    with np.errstate(divide="ignore", invalid="ignore"):
        c = a - np.log1p(-p_dark)  # infinite when P_dark = 1
        alpha = np.where(c > 0, np.expm1(-windows * c) / np.expm1(-c), windows)
        # P(at least one of n idlers detected), accurate for tiny e_h too.
        hit = -np.expm1(n * np.log1p(-e_h))
    hit[0] = 0.0  # 0 * ln(0) is NaN at e_h = 1
    miss = (1.0 - e_h) ** n
    beta = (1.0 + alpha * np.expm1(-a)) * np.exp(a)
    rows = poisson_rows(mu, n_max) * (alpha[:, None] * hit + beta[:, None] * miss)
    tail = np.maximum(0.0, 1.0 - rows.sum(axis=1))
    if tail.max(initial=0.0) >= TAIL_LIMIT:
        worst = int(np.argmax(tail))
        raise TruncationError(
            f"tail mass {tail[worst]:.3e} beyond n_max={n_max} exceeds {TAIL_LIMIT:.0e} "
            f"at mu={float(mu[worst])!r}; increase n_max"
        )
    return rows, tail


def _distribution(cfg: SourceConfig, windows: int, p_dark: float, n_max: int,
                  transmission: float = 1.0, **meta) -> PhotonDistribution:
    """One loss-chain evaluation at cfg.mu: a batch of one through the core."""
    rows, tail = _herald_rows(np.array([cfg.mu]), cfg.e_h, windows, p_dark, n_max)
    if cfg.e_h == 0.0:
        meta["degenerate_no_herald"] = True
    return PhotonDistribution(rows[0] @ binomial_matrix(n_max, transmission), n_max,
                              float(tail[0]), meta)


def heralded_distribution(
    cfg: SourceConfig,
    n_windows: Optional[int] = None,
    n_max: int = DEFAULT_N_MAX,
) -> PhotonDistribution:
    """Output distribution with heralding-branch loss only.

    Mixes the clicked-window conditional (weight: probability of at least one
    idler detection within the interval) with the unclicked bypass-window
    conditional (complementary weight).

    Parameters
    ----------
    cfg:
        Source configuration; ``e_s``, ``e_sw_db`` and ``r_dark`` are ignored
        here.
    n_windows:
        Effective number of detection windows in the interval; defaults to
        ``2**m``.  Values below the full interval describe a shortened
        correction window.
    n_max:
        Truncation bound.
    """
    windows = cfg.n_windows if n_windows is None else int(n_windows)
    if not 1 <= windows <= cfg.n_windows:
        raise ValueError(f"n_windows must lie in [1, {cfg.n_windows}], got {n_windows}")
    return _distribution(cfg, windows, 0.0, n_max)


def with_dark_counts(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> PhotonDistribution:
    """Output distribution with heralding loss and dark counts.

    The first dark count within the synchronization interval (probability
    ``(1-P_dark)**(l-1) * P_dark`` for window l) truncates the usable
    interval to l windows; with no dark count anywhere the full interval
    applies.  The result is the corresponding mixture of
    :func:`heralded_distribution` over interval lengths, summed in closed
    form at a cost independent of the interval length.
    """
    return _distribution(cfg, cfg.n_windows, cfg.p_dark, n_max)


def apply_signal_loss(dist: PhotonDistribution, transmission: float) -> PhotonDistribution:
    """Send a photon-number distribution through a binomial loss channel.

    Each of the n photons survives independently with probability
    ``transmission``, so the k-photon output weight marginalizes the binomial
    factor over all input numbers n >= k.  This is the only reading of the
    binomial loss factor that preserves normalization.
    """
    if not (0.0 <= transmission <= 1.0):
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    probs = dist.probs @ binomial_matrix(dist.n_max, transmission)
    # Photons lost from beyond the truncation bound would only move mass into
    # the retained bins, so carrying the tail through unchanged is an upper
    # bound on the residual error.
    return PhotonDistribution(probs, dist.n_max, dist.tail_mass, dist.meta)


def output_distribution(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> PhotonDistribution:
    """End-to-end photon-number distribution with all device imperfections.

    Every routed photon crosses m+1 switches, so the signal branch transmits
    ``cfg.e_s_total`` regardless of which delays were selected.
    """
    return _distribution(cfg, cfg.n_windows, cfg.p_dark, n_max, cfg.e_s_total, config=cfg)


def output_chain(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> LossChainTrace:
    """End-to-end chain with every intermediate stage retained."""
    return LossChainTrace((
        ("ideal", ideal_distribution(cfg, n_max)),
        ("heralded", heralded_distribution(cfg, None, n_max)),
        ("dark", with_dark_counts(cfg, n_max)),
        ("final", output_distribution(cfg, n_max)),
    ))


def p1_snr_curve(
    cfg: SourceConfig,
    mu_values: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized single-photon probability and SNR over a pump grid.

    Evaluates the full loss chain of :func:`output_distribution` for every
    mu in ``mu_values`` at once; used by the optimizer and by ``validate``.
    Raises :class:`TruncationError` like the scalar path when the tail mass
    at any grid point reaches the limit.

    Returns
    -------
    (p1, snr):
        Arrays of the single-photon probability and of P_1 / P_>=2 over the
        grid.  The SNR is +inf where the multi-photon weight vanishes.
    """
    mu = np.asarray(mu_values, dtype=float)
    if not ((mu >= 0) & (mu < np.inf)).all():
        raise ValueError("mu grid must be finite and >= 0")
    rows, _ = _herald_rows(mu, cfg.e_h, cfg.n_windows, cfg.p_dark, n_max)
    # Only the zero- and one-survivor columns of the loss matrix are needed.
    p0, p1 = (rows @ binomial_matrix(n_max, cfg.e_s_total)[:, :2]).T
    p_multi = np.maximum(1.0 - p0 - p1, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p_multi > 0, p1 / np.where(p_multi > 0, p_multi, 1.0), np.inf)
    return p1, ratio
