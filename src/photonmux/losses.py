"""Imperfect-device chain: heralding loss, dark counts, signal-branch loss.

The heralding-branch transmission splits the output into a heralded part (at
least one idler detected somewhere in the synchronization interval) and an
unheralded bypass part.  Dark counts shorten the effective interval: the
first spurious click routes the output early, which mixes the heralded
expression over interval lengths.  Every photon in the routed window then
survives the signal branch independently with the end-to-end transmission,
a binomial loss channel.

The chain has a closed form.  Before signal loss the routed window holds n
photons with probability alpha Pois(n; mu) + (1 - alpha) Pois(n; mu (1 - e_h)),
and binomial thinning maps Poisson(lambda) to Poisson(lambda t), so the output
is the same mixture at means mu t and mu (1 - e_h) t.  One batched core,
:func:`_output_rows`, evaluates it for arrays of pump rates and
transmissions; the scalar entry points are batches of one.
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
    snr_rows,
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


def _output_rows(
    mu: np.ndarray,
    transmission: np.ndarray | float,
    e_h: float,
    windows: int,
    p_dark: float,
    n_max: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Output distribution rows and their tail masses over a grid.

    ``mu`` (a 1-D array) and ``transmission`` broadcast together; each pair
    gives one row.  A window triggers when one of its idlers is detected
    (probability 1 - e^-a, a = mu e_h) or a dark count fires (P_dark); its
    trigger rate is c = a - ln(1 - P_dark).  The first trigger in the
    W-window interval routes that window, which holds a detected idler with
    probability (1 - e^-a) / (1 - e^-c); with no trigger the bypass window is
    routed.  Summing the first-trigger position over the interval, the
    geometric sum of the first-dark-count mixture over interval lengths,
    the routed window holds n photons with probability

        alpha Pois(n; mu) + (1 - alpha) Pois(n; mu (1 - e_h)),
        alpha = (1 - e^(-W c)) / (1 - e^-c).

    Binomial thinning with transmission t scales each Poisson mean by t.
    With x_k = mu e_h t + k ln(1 - e_h), Pois(k; mu (1 - e_h) t) is
    Pois(k; mu t) e^(x_k), so

        P_k = Pois(k; mu (1 - e_h) t) - alpha Pois(k; mu t) expm1(x_k)
            = Pois(k; mu t) (1 - (alpha - 1) expm1(x_k)).

    expm1 gives the difference of the two Poisson laws to full relative
    precision; the equivalent signed weights alpha and 1 - alpha would lose
    about alpha eps, and alpha reaches W.  The factored form needs one
    Poisson row and is exactly Pois(mu t) when alpha = 1, as at W = 1.

    Returns (probs, tail): P_k for k = 0..n_max, and the sum of the terms
    k = n_max+1 .. 2 n_max+1, which wherever the guard passes leaves out
    less than 1e-18.  Rows where 1 - sum(probs) reaches TAIL_LIMIT raise
    TruncationError, naming the worst mu.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    lam = mu * transmission
    width = 2 * n_max + 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = mu * e_h - np.log1p(-p_dark)  # infinite when P_dark = 1
        alpha = np.where(c > 0, np.expm1(-windows * c) / np.expm1(-c), windows)
        shift = np.arange(width) * np.log1p(-e_h)
        shift[0] = 0.0  # 0 * ln(0) is NaN at e_h = 1
        pois = poisson_rows(lam, width - 1)
        # In place, so a large grid holds two (rows, width) arrays at most.
        # expm1 overflows only where mu t > 709; the guard rejects those rows.
        terms = np.add.outer(lam * e_h, shift)
        np.expm1(terms, out=terms)
        terms *= (1.0 - alpha)[:, None]
        terms += 1.0
        terms *= pois
    probs = terms[:, :n_max + 1]
    lost = 1.0 - probs.sum(axis=1)
    if not (lost < TAIL_LIMIT).all():  # a NaN row fails too
        worst = int(np.argmax(lost))
        raise TruncationError(
            f"tail mass {lost[worst]:.3e} beyond n_max={n_max} exceeds {TAIL_LIMIT:.0e} "
            f"at mu={float(np.broadcast_to(mu, lam.shape)[worst])!r}; increase n_max"
        )
    return probs, terms[:, n_max + 1:].sum(axis=1)


def _distribution(cfg: SourceConfig, windows: int, p_dark: float, n_max: int,
                  transmission: float = 1.0, **meta) -> PhotonDistribution:
    """One loss-chain evaluation at cfg.mu: a batch of one through the core."""
    probs, tail = _output_rows(np.array([cfg.mu]), transmission, cfg.e_h, windows, p_dark, n_max)
    if cfg.e_h == 0.0:
        meta["degenerate_no_herald"] = True
    return PhotonDistribution(probs[0], n_max, float(tail[0]), meta)


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
    probs, tail = _output_rows(mu, cfg.e_s_total, cfg.e_h, cfg.n_windows, cfg.p_dark, n_max)
    _, ratio = snr_rows(probs, tail)
    # A copy, so that holding P_1 does not hold the whole (rows, width) array.
    return probs[:, 1].copy(), ratio
