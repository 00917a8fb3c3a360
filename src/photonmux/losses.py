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
is the same mixture at means mu t and mu (1 - e_h) t.  One batched core
evaluates it for arrays of pump rates and transmissions, with the other
parameters per row or shared, and one driver, :func:`_blocks`, runs any
number of rows through it in fixed-size blocks and applies the truncation
guard.  :func:`_output_rows` collects the blocks' rows, and the scalar entry
points are batches of one through it; :func:`_p1_snr_rows` and the sweep
curves keep only what they need of each block.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .config import SourceConfig
from .stats import (
    DEFAULT_N_MAX,
    TAIL_LIMIT,
    PhotonDistribution,
    TruncationError,
    _check_n_max,
    p1_rows,
    poisson_rows,
    snr_rows,
)

__all__ = [
    "heralded_distribution",
    "with_dark_counts",
    "output_distribution",
    "p1_snr_curve",
]


def _output_rows(
    mu: np.ndarray,
    transmission: np.ndarray | float,
    e_h: np.ndarray | float,
    windows: np.ndarray | int,
    p_dark: np.ndarray | float,
    n_max: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Output distribution rows and their tail masses over a grid.

    ``mu`` (a 1-D array) and the other parameters broadcast together; each
    entry of ``mu`` gives one row, and every other parameter is either one
    value for all rows or one value per row.  A window triggers when one of
    its idlers is detected (probability 1 - e^-a, a = mu e_h) or a dark count
    fires (P_dark); its trigger rate is c = a - ln(1 - P_dark).  The first
    trigger in the W-window interval routes that window, which holds a
    detected idler with probability (1 - e^-a) / (1 - e^-c); with no trigger
    the bypass window is routed.  Summing the first-trigger position over the
    interval, the geometric sum of the first-dark-count mixture over interval
    lengths, the routed window holds n photons with probability

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
    less than 1e-18.  The rows come from :func:`_blocks`, so rows where
    1 - sum(probs) reaches TAIL_LIMIT raise TruncationError, naming the
    worst mu.
    """
    _, probs, tail = zip(*_blocks(mu, transmission, e_h, windows, p_dark, n_max))
    return np.concatenate(probs), np.concatenate(tail)


def _chain_rows(mu, transmission, e_h, windows, p_dark, n_max):
    """The rows of :func:`_output_rows` with their lost mass 1 - sum(probs),
    before the truncation guard."""
    _check_n_max(n_max)
    lam = mu * transmission
    width = 2 * n_max + 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = mu * e_h - np.log1p(-p_dark)  # infinite when P_dark = 1
        alpha = np.where(c > 0, np.expm1(-windows * c) / np.expm1(-c), windows)
        shift = np.arange(width) * np.log1p(-e_h)[..., None]  # one row per e_h
        shift[..., 0] = 0.0  # 0 * ln(0) is NaN at e_h = 1
        pois = poisson_rows(lam, width - 1)
        # In place, so a large grid holds two (rows, width) arrays at most.
        # expm1 overflows only where mu t > 709; the guard rejects those rows.
        terms = (lam * e_h)[:, None] + shift
        np.expm1(terms, out=terms)
        terms *= (1.0 - alpha)[:, None]
        terms += 1.0
        terms *= pois
    probs = terms[:, :n_max + 1]
    return probs, terms[:, n_max + 1:].sum(axis=1), 1.0 - probs.sum(axis=1)


def _check_truncation(mu: np.ndarray, lost: np.ndarray, n_max: int) -> None:
    """Raise TruncationError unless every row lost less than TAIL_LIMIT,
    naming the mu of the row np.argmax picks: the first worst row, or the
    first NaN row."""
    if not (lost < TAIL_LIMIT).all():  # a NaN row fails too
        worst = int(np.argmax(lost))
        raise TruncationError(
            f"tail mass {lost[worst]:.3e} beyond n_max={n_max} exceeds {TAIL_LIMIT:.0e} "
            f"at mu={float(mu[worst])!r}; increase n_max"
        )


# Rows per core call, so that a block's (rows, 2 n_max + 2) arrays stay in
# cache.  Of 128 to 4096 rows, 256 ran figure2() plus figure5() fastest; a
# 100,001-point p1_snr_curve took 88 ms at 256 rows, 82-94 ms at 512 to 4096
# and 120 ms at 128 (2-vCPU x86-64 host).
_BLOCK_ROWS = 256


def _blocks(mu, transmission, e_h, windows, p_dark, n_max):
    """Yield (rows, probs, tail) for each _BLOCK_ROWS block of the pump rates
    in ``mu`` whose rows all pass the truncation guard: the slice of ``mu``
    and the block's core rows, as :func:`_output_rows` describes them.

    The parameters broadcast per row as for :func:`_output_rows`.  Memory
    stays bounded whatever the number of rows.  After the last block,
    TruncationError names the worst mu over the whole input, as one unblocked
    core call would; a caller that stops early skips that check.
    """
    rows = mu.size
    params = (transmission, e_h, windows, p_dark)
    lost = np.empty(rows)
    # An empty input still passes the core's argument checks once.
    for start in range(0, max(rows, 1), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        probs, tail, lost[block] = _chain_rows(
            mu[block], *[p[block] if getattr(p, "ndim", 0) else p for p in params], n_max)
        if (lost[block] < TAIL_LIMIT).all():  # a failing block raises below
            yield block, probs, tail
    _check_truncation(mu, lost, n_max)


def _p1_snr_rows(mu, transmission, e_h, windows, p_dark, n_max):
    """P_1 and the SNR of the output row of each pump rate in ``mu``, from
    :func:`_blocks`."""
    p1, ratio = np.empty(mu.size), np.empty(mu.size)
    for rows, probs, tail in _blocks(mu, transmission, e_h, windows, p_dark, n_max):
        p1[rows] = p1_rows(probs)
        ratio[rows] = snr_rows(probs, tail)[1]
    return p1, ratio


def _distribution(cfg: SourceConfig, windows: int, p_dark: float, n_max: int,
                  transmission: float = 1.0, **meta) -> PhotonDistribution:
    """One loss-chain evaluation at cfg.mu: a batch of one through the core."""
    probs, tail = _output_rows(np.array([cfg.mu]), transmission, cfg.e_h, windows, p_dark, n_max)
    return _row_distribution(cfg, probs[0], tail[0], n_max, **meta)


def _row_distribution(cfg: SourceConfig, probs: np.ndarray, tail: float, n_max: int,
                      **meta) -> PhotonDistribution:
    """The distribution of one core row of cfg's chain, with ``meta``."""
    if cfg.e_h == 0.0:
        meta["degenerate_no_herald"] = True
    return PhotonDistribution(probs, n_max, float(tail), meta)


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
        Effective number of detection windows in the interval, an integer;
        defaults to ``2**m``.  Values below the full interval describe a
        shortened correction window.
    n_max:
        Truncation bound.
    """
    windows = cfg.n_windows if n_windows is None else n_windows
    try:
        valid = (not isinstance(windows, bool) and int(windows) == windows
                 and 1 <= windows <= cfg.n_windows)
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        valid = False
    if not valid:
        raise ValueError(f"n_windows must be an integer in [1, {cfg.n_windows}], "
                         f"got {n_windows!r}")
    return _distribution(cfg, int(windows), 0.0, n_max)


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


def output_distribution(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> PhotonDistribution:
    """End-to-end photon-number distribution with all device imperfections.

    Every routed photon crosses m+1 switches, so the signal branch transmits
    ``cfg.e_s_total`` regardless of which delays were selected.
    """
    return _distribution(cfg, cfg.n_windows, cfg.p_dark, n_max, cfg.e_s_total, config=cfg)


def p1_snr_curve(
    cfg: SourceConfig,
    mu_values: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized single-photon probability and SNR over a pump grid.

    Evaluates the full loss chain of :func:`output_distribution` for every
    mu in ``mu_values``, in blocks of rows as the optimizer's rounds do.
    Raises :class:`TruncationError` like the scalar path when the tail mass
    at any grid point reaches the limit, naming the worst one.

    Returns
    -------
    (p1, snr):
        Arrays of the single-photon probability and of P_1 / P_>=2 over the
        grid.  The SNR is +inf where the multi-photon weight vanishes.
    """
    mu = np.asarray(mu_values, dtype=float)
    if not ((mu >= 0) & (mu < np.inf)).all():
        raise ValueError("mu grid must be finite and >= 0")
    return _p1_snr_rows(mu, cfg.e_s_total, cfg.e_h, cfg.n_windows, cfg.p_dark, n_max)
