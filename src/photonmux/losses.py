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
:func:`_chain_rows`, evaluates its rows for arrays of pump rates and
transmissions, with the other parameters per row or shared, and one driver,
:func:`_blocks`, runs any number of rows through it in fixed-size blocks and
applies the truncation guard.  :func:`_inputs` and :func:`_parameters` are
the one map from configs to those parameters.  The one scalar entry point,
:func:`output_distribution`, is a batch of one through :func:`_blocks`, and
:func:`_merits` reads the figures of merit of any number of rows from its
blocks, for the sweep records and the optimizer's optima.  The optimizer's
rounds and :func:`p1_snr_curve` read P_1 and P_>=2 alone: :func:`_p1_snr_rows`
and its P_1-only sibling :func:`_p1_rows` take them from :func:`_p1_multi`,
which sums the mixture in closed form, with P_1 bit for bit as in the row, at
every pump rate up to 4, where the truncation guard cannot reject a row;
higher pump rates, and zero or vanishing ones, are read from :func:`_merits`,
so :func:`output_distribution` and :func:`_merits` are the only readers of
the rows.  Each stage on its own is a config of the full chain: transmission 1
(``e_s=1.0, e_sw_db=0.0``) leaves heralding loss and dark counts, and
``r_dark=0.0`` as well leaves heralding loss only.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .config import SourceConfig
from .stats import (
    DEFAULT_N_MAX,
    TAIL_LIMIT,
    PhotonDistribution,
    TruncationError,
    _check_n_max,
    check_rows,
    mandel_q_rows,
    p1_rows,
    poisson_rows,
    snr_rows,
)

__all__ = ["output_distribution", "p1_snr_curve"]


def _inputs(cfg: SourceConfig) -> tuple:
    """The loss-chain parameters of ``cfg`` after the pump rate: the signal
    transmission, e_h, the window count and P_dark."""
    return cfg.e_s_total, cfg.e_h, cfg.n_windows, cfg.p_dark


def _parameters(configs: Sequence[SourceConfig]) -> np.ndarray:
    """The :func:`_inputs` of each config as a column of floats."""
    return np.array([_inputs(cfg) for cfg in configs], dtype=float).T


def _herald_weight(mu, e_h, windows, p_dark):
    """The weight alpha of :func:`_chain_rows`' mixture for each row, under
    the caller's np.errstate: 0/0 at c = 0 gives way to W."""
    c = mu * e_h - np.log1p(-p_dark)  # infinite when P_dark = 1
    return np.where(c > 0, np.expm1(-windows * c) / np.expm1(-c), windows)


def _chain_rows(mu, transmission, e_h, windows, p_dark, n_max):
    """Output distribution rows, their tail masses and their lost masses
    1 - sum(probs) over a grid, before the truncation guard.

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

    Returns (probs, tail, lost): P_k for k = 0..n_max, the sum of the terms
    k = n_max+1 .. 2 n_max+1, which wherever the truncation guard passes
    leaves out less than 1e-18, and 1 - sum(probs), which the guard reads.
    """
    n_max = _check_n_max(n_max)
    lam = mu * transmission
    width = 2 * n_max + 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = _herald_weight(mu, e_h, windows, p_dark)
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
            f"at mu={float(mu[worst])!r}; lower mu or increase n_max"
        )


# Rows per core call, which bound the memory of the sweep records, the
# optimizer's final round and the rows the closed form leaves to the row path:
# 127 kB per (rows, 2 n_max + 2) array at DEFAULT_N_MAX.  Of 64 to 4096 rows,
# 256 took 68 ms for a 20,001-point mu sweep and 78 ms for 100,001 row-path
# points (mu > 4) of p1_snr_curve, against 65 and 64 ms at best, at 512 to
# 1024 rows (2-vCPU x86-64 host); the figures send few rows per call.
_BLOCK_ROWS = 256


def _rows_of(params, rows):
    """Each parameter at ``rows``, or as it is where one value serves all rows."""
    return [p[rows] if getattr(p, "ndim", 0) else p for p in params]


def _blocks(mu, transmission, e_h, windows, p_dark, n_max):
    """Yield (rows, probs, tail) for each _BLOCK_ROWS block of the pump rates
    in ``mu`` whose rows all pass the truncation guard: the slice of ``mu``
    and the block's core rows, as :func:`_chain_rows` describes them.

    The parameters broadcast per row as for :func:`_chain_rows`.  Memory
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
        probs, tail, lost[block] = _chain_rows(mu[block], *_rows_of(params, block), n_max)
        if (lost[block] < TAIL_LIMIT).all():  # a failing block raises below
            yield block, probs, tail
    _check_truncation(mu, lost, n_max)


def _merits(mu: np.ndarray, transmission, e_h, windows, p_dark) -> list:
    """The p0, p1, p_ge2, snr and mandel_q columns of the output rows at
    DEFAULT_N_MAX of the pump rates ``mu``, with the parameters of
    :func:`_chain_rows`, as lists of floats.

    The rows come from the blocks of :func:`_blocks`, and only these columns
    are kept, so memory beyond them stays bounded.  The rows pass the checks
    a PhotonDistribution applies; TruncationError, naming the worst mu over
    all rows, is raised before any other check fails, and then the first
    failing row raises.  P_>=2 and the SNR come from :func:`snr_rows` and Q
    from :func:`mandel_q_rows`, which give each row what :func:`stats.snr`
    and :func:`stats.mandel_q` return for its distribution, and Q is NaN for
    the vacuum.
    """
    merits = [[] for _ in range(5)]
    fault = None
    for _, probs, tail in _blocks(mu, transmission, e_h, windows, p_dark, DEFAULT_N_MAX):
        if fault is not None:
            continue  # raised once _blocks has checked every row's truncation
        try:
            check_rows(probs, tail, DEFAULT_N_MAX)
        except ValueError as error:
            fault = error
            continue
        parts = (probs[:, 0], p1_rows(probs), *snr_rows(probs, tail), mandel_q_rows(probs))
        for column, part in zip(merits, parts):
            column += part.tolist()
    if fault is not None:
        raise fault
    return merits


# The closed form of _p1_multi takes the rows with _CLOSED_FORM_LAM <= mu t
# and mu <= _CLOSED_FORM_MU; the others are read from _merits.  A row's path
# depends on its own values alone, never on the rows beside it.
#
# Up to _CLOSED_FORM_MU the output's mass beyond DEFAULT_N_MAX is below about
# 1e-16, far under TAIL_LIMIT, so the truncation guard cannot reject a row the
# closed form takes: it is Q_31(mu t) <= Q_31(4) ~ 1e-17 plus about
# (alpha - 1) e_h mu t Pois(30; mu t) <= t Pois(30; 4) ~ 8e-17, since
# alpha - 1 <= 1 / (mu e_h).  The guard, and the mu its TruncationError
# names, see every row it could reject as before.
_CLOSED_FORM_MU = 4.0
# Below _CLOSED_FORM_LAM the row path's P_>=2, whose Poisson terms are
# exp(k ln(mu t) - ...), carries a relative error of about 2 |ln(mu t)| eps,
# and near mu t = 1e-154 both forms of P_>=2 reach the subnormal range, where
# they round to 0 at different points.  Zero pumps and such faint rows keep
# the row path, so the SNR is +inf exactly where the rows give +inf.
_CLOSED_FORM_LAM = 1e-100

# Below this x, h(x) = expm1(x) - x is summed from its Taylor series
# x^2 (1/2! + x/3! + ... + x^16/18!), whose remainder there is below 1e-18
# of the sum; above it the subtraction loses at most expm1(x) / h(x) = 3.2 ulp.
_H_SERIES_BELOW = 0.7
_H_COEFFICIENTS = tuple(1.0 / math.factorial(k) for k in range(18, 1, -1))


def _h(x: np.ndarray) -> np.ndarray:
    """expm1(x) - x for each x >= 0, to a few ulp."""
    small = x < _H_SERIES_BELOW
    whole = small.all()
    s = x if whole else x[small]
    series = s * _H_COEFFICIENTS[0]
    for coefficient in _H_COEFFICIENTS[1:]:  # Horner's scheme, from the highest power
        series += coefficient
        series *= s
    series *= s
    if whole:
        return series
    out = np.expm1(x)
    out -= x
    out[small] = series
    return out


def _p1_multi(mu, transmission, e_h, windows, p_dark, multi):
    """(P_1, P_>=2) of the output at DEFAULT_N_MAX of each pump rate in
    ``mu``, P_>=2 None unless ``multi``, from the mixture of
    :func:`_chain_rows` summed in closed form.

    P_1 is column 1 of the row of :func:`_chain_rows`, computed by the same
    operations, so it has the same bits.  With lam = mu t, d = lam e_h and
    h(x) = expm1(x) - x, summing P_k over k >= 2 gives

        P_>=2 = e^-lam [h(lam) + (alpha - 1) (h(d) + (lam - d) expm1(d))].

    Every term is >= 0, since alpha >= 1, so nothing cancels, and the sum
    has no truncation; the row path's P_>=2 is a sum of 60 rounded terms.
    Rows outside the bounds of _CLOSED_FORM_MU and _CLOSED_FORM_LAM, which
    may overflow or give NaN here, take their columns from :func:`_merits`,
    with its checks and the TruncationError that names the worst of them.
    """
    lam = mu * transmission
    d = lam * e_h
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weight = 1.0 - _herald_weight(mu, e_h, windows, p_dark)
        p1 = (np.expm1(d + np.log1p(-e_h)) * weight + 1.0) * np.exp(np.log(lam) - lam)
        p_multi = None
        if multi:
            h = _h(np.concatenate((lam, d)))
            h_lam, h_d = h[:lam.size], h[lam.size:]
            p_multi = np.exp(-lam) * (h_lam - weight * (h_d + (lam - d) * np.expm1(d)))
    far = ~((mu <= _CLOSED_FORM_MU) & (lam >= _CLOSED_FORM_LAM))
    if far.any():
        _, p1[far], far_multi, _, _ = _merits(
            mu[far], *_rows_of((transmission, e_h, windows, p_dark), far))
        if multi:
            p_multi[far] = far_multi
    return p1, p_multi


def _p1_rows(mu, transmission, e_h, windows, p_dark):
    """P_1 of the output row of each pump rate in ``mu``, as
    :func:`_p1_snr_rows` gives it, without the SNR."""
    return _p1_multi(mu, transmission, e_h, windows, p_dark, False)[0]


def _p1_snr_rows(mu, transmission, e_h, windows, p_dark):
    """P_1 and the SNR P_1 / P_>=2 of the output at DEFAULT_N_MAX of each
    pump rate in ``mu``, with the parameters of :func:`_chain_rows`.

    P_1 has the bits of column 1 of the pump rate's row.  The SNR is +inf
    where P_>=2 is 0; see :func:`p1_snr_curve` for its bound against the
    row's :func:`stats.snr_rows`.
    """
    p1, p_multi = _p1_multi(mu, transmission, e_h, windows, p_dark, True)
    # As stats.snr_rows divides, so a row from _merits keeps its bits.
    return p1, np.divide(p1, p_multi, out=np.full_like(p_multi, np.inf),
                         where=~(p_multi <= 0.0))


def output_distribution(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> PhotonDistribution:
    """End-to-end photon-number distribution with all device imperfections.

    Every routed photon crosses m+1 switches, so the signal branch transmits
    ``cfg.e_s_total`` regardless of which delays were selected.
    """
    # Unpacking the one block runs _blocks to its end, and so its guard.
    (_, probs, tail), = _blocks(np.array([cfg.mu]), *_inputs(cfg), n_max)
    return PhotonDistribution(probs[0], probs.shape[1] - 1, tail[0], cfg)


def p1_snr_curve(cfg: SourceConfig,
                 mu_values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized single-photon probability and SNR over a pump grid.

    Evaluates the loss chain of :func:`output_distribution` at every mu in
    ``mu_values`` as the optimizer's rounds do.  Grid points with
    mu <= 4 and mu t >= 1e-100 (t the signal transmission) take a closed
    form for P_1 and P_>=2, the others the output rows, which pass the
    checks of a PhotonDistribution.  Raises :class:`TruncationError` like the
    scalar path when the tail mass at any grid point reaches the limit,
    naming the worst one, before any other check fails.

    Returns
    -------
    (p1, snr):
        Arrays of the single-photon probability and of P_1 / P_>=2 over the
        grid.  Each P_1 has the bits of ``output_distribution(...).p(1)`` at
        its mu.  The SNR is +inf exactly where :func:`stats.snr` of that
        distribution is; elsewhere the two differ by less than 1e-13
        relative, since the closed form sums P_>=2 in another order than the
        row's 60 terms.  A point's values do not depend on the other points
        of the grid.
    """
    mu = np.asarray(mu_values, dtype=float)
    if mu.ndim != 1:
        raise ValueError("mu grid must be one-dimensional")
    if not ((mu >= 0) & (mu < np.inf)).all():
        raise ValueError("mu grid must be finite and >= 0")
    return _p1_snr_rows(mu, *_inputs(cfg))
