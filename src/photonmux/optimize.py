"""Pump-rate tuning: unconstrained and SNR-constrained maximization of P_1.

The single-photon probability is a smooth, in practice single-peaked function
of the pump rate, but unimodality is never assumed blindly: a coarse
logarithmic grid of COARSE_POINTS pump rates locates every local maximum and
golden-section search refines each candidate bracket.  The SNR constraint is
handled through the feasible set on the same grid, with bisection at every
feasibility crossing.

The batch entry points :func:`optimize_mu_batch` and
:func:`max_p1_with_snr_floor_batch`, which ``figure2``, ``figure5`` and
``validate`` use, run all their searches together in phases (:func:`_search`):
the coarse grid, one for the whole call, then every SNR-boundary bisection,
then the grids of the feasible sub-intervals, then every golden section,
then the optima.  A phase holds the brackets of all its jobs in numpy
arrays, with the index of the search each job serves, and each round takes
one step of every live job: a few elementwise operations and one blocked
call of the loss-chain core.
The last round evaluates each golden section's final midpoint together with
every other candidate optimum in one call of the core that keeps whole
output rows, and each result's distribution is its optimum's row.
``figure2()`` takes 29 rounds for its 11 searches and ``figure5()`` 59 for
its 72, about 4 and 17 ms on a 2-vCPU x86-64 host.  Every result,
``iterations`` included, equals that of the search run alone with one
loss-chain evaluation per step: numpy's elementwise float64 arithmetic
rounds as Python's does, one operation at a time, and a point's values do
not depend on the rows it is evaluated with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import SourceConfig
# output_distribution and p1_snr_curve stay module attributes: perfbench's
# traced pass and its chain-call probe wrap them by name.
from .losses import (  # noqa: F401
    _output_rows,
    _p1_snr_rows,
    _row_distribution,
    output_distribution,
    p1_snr_curve,
)
from .stats import DEFAULT_N_MAX, PhotonDistribution, mandel_q_or_nan, p1_rows, snr_rows

__all__ = [
    "OptimizationResult",
    "optimize_mu",
    "optimize_mu_batch",
    "max_p1_with_snr_floor",
    "max_p1_with_snr_floor_batch",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# An SNR-boundary bisection stops at this bracket width relative to max(1, mu).
_BISECT_TOL = 1e-10
DEFAULT_MU_RANGE = (1e-4, 2.0)
# Points of every logarithmic grid: the coarse grid and each sub-interval's.
COARSE_POINTS = 96


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a pump-rate optimization.

    ``boundary`` is "lower"/"upper" when the maximum sits on the search-range
    edge (reported as non-converged).  ``feasible`` is False when an SNR
    target cannot be met anywhere in the range; the remaining fields are NaN
    in that case.  ``constraint_active`` marks a constrained optimum pinned
    to the SNR boundary rather than the unconstrained peak.
    ``distribution`` is the loss chain's output at ``mu_opt``, from which the
    figures of merit were taken; None when infeasible.
    """

    mu_opt: float
    p1_max: float
    snr_at_opt: float
    mandel_q_at_opt: float
    iterations: int
    converged: bool
    boundary: Optional[str] = None
    feasible: bool = True
    snr_target: Optional[float] = None
    constraint_active: bool = False
    distribution: Optional[PhotonDistribution] = field(default=None, compare=False, repr=False)


def _interior_maxima(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(row, index) of the strict-or-plateau local maxima inside each row of
    ``values``, in row-major order: the points other than the two ends that
    are at least as high as both neighbours."""
    inner = values[:, 1:-1]
    rows, index = np.nonzero((inner >= values[:, :-2]) & (inner >= values[:, 2:]))
    return rows, index + 1


def _parameters(configs: Sequence[SourceConfig]) -> np.ndarray:
    """The loss-chain parameters of each config as a column: the signal
    transmission, e_h, the window count and P_dark."""
    return np.array([(cfg.e_s_total, cfg.e_h, float(cfg.n_windows), cfg.p_dark)
                     for cfg in configs]).T


def _coarse_round(params: np.ndarray, grid: np.ndarray,
                  n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """(P_1, SNR) over ``grid`` with the parameters of each case, as arrays
    with one row per case.  Cases of equal parameters share their rows; kept
    in order of first appearance, the rows sent are those the unshared round
    would send, so TruncationError names the same pump rate."""
    keys = [params[:, case].tobytes() for case in range(params.shape[1])]
    slot = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    rows = np.array([slot[key] for key in keys])
    sent = np.unique(rows, return_index=True)[1]  # the first case of each slot
    p1, ratio = _p1_snr_rows(np.tile(grid, sent.size), *params[:, np.repeat(sent, grid.size)],
                             n_max)
    return p1.reshape(sent.size, -1)[rows], ratio.reshape(sent.size, -1)[rows]


def _bisect(params: np.ndarray, owner: np.ndarray, feasible: np.ndarray,
            infeasible: np.ndarray, target: np.ndarray, n_max: int,
            tol: float = _BISECT_TOL) -> np.ndarray:
    """The feasibility boundaries between ``feasible[i]`` (SNR >= target[i])
    and ``infeasible[i]`` (SNR < target[i]), in either order, each on its
    feasible side: the feasible ends of the final brackets.  A pair of equal
    ends is a boundary already.  The live brackets are kept packed, and a
    bracket leaves them when it closes."""
    found = feasible.copy()
    live, ok, bad, row = np.arange(found.size), feasible, infeasible, params[:, owner]
    while True:
        open_ = np.abs(bad - ok) > tol * np.maximum(np.maximum(1.0, ok), bad)
        if not open_.all():
            found[live] = ok
            live, ok, bad, target, row = (live[open_], ok[open_], bad[open_], target[open_],
                                          row[:, open_])
        if not live.size:
            return found
        mid = 0.5 * (ok + bad)
        passed = _p1_snr_rows(mid, *row, n_max)[1] >= target
        ok, bad = np.where(passed, mid, ok), np.where(passed, bad, mid)


def _golden(params: np.ndarray, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            tol: float, n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Golden-section maximizations of P_1 on [lo[i], hi[i]], each bracket
    (a, b) with inner points c < d keeping the side of the larger of P_1(c)
    and P_1(d) until b - a <= tol.  Returns the final midpoints, not yet
    evaluated, and the steps each search took.  The live searches are kept
    packed, and a search leaves them when its bracket closes."""
    mids, steps = np.empty(lo.size), np.zeros(lo.size, dtype=int)
    live, a, b, row = np.arange(lo.size), lo, hi, params[:, owner]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = np.split(_p1_snr_rows(np.concatenate((c, d)), *np.tile(row, 2), n_max)[0], 2)
    step = 0
    while True:
        open_ = b - a > tol
        if not open_.all():
            closed = live[~open_]
            mids[closed], steps[closed] = 0.5 * (a[~open_] + b[~open_]), step
            live, a, b, c, d, fc, fd, row = (x[..., open_] for x in (live, a, b, c, d, fc, fd, row))
        if not live.size:
            return mids, steps
        left = fc >= fd
        new = np.where(left, d - _GOLDEN * (d - a), c + _GOLDEN * (b - c))
        f_new = _p1_snr_rows(new, *row, n_max)[0]
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        step += 1


def _search(cases: Sequence[Tuple[SourceConfig, Optional[float]]], mu_range: Tuple[float, float],
            tol: float, n_max: int) -> list:
    """The results of the (template, snr_target) cases, all searched
    together: :func:`max_p1_with_snr_floor` for each target, and
    :func:`optimize_mu` for a target of None.

    The phases run in order, each in rounds of one step for every live job
    (see the module docstring).  A peak is a maximization over a grid: the
    coarse grid of an unconstrained case or the grid of a feasible
    sub-interval; each interior local maximum of its grid gives it one golden
    section.  The final round evaluates, for every peak, its best grid point
    and its golden sections' midpoints, and the lone point of every
    sub-interval that bisection closed to a point.
    """
    if any(target is not None and math.isnan(target) for _, target in cases):
        raise ValueError("snr_target must not be NaN")
    if not cases:
        return []
    lo, hi = mu_range
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"mu_range must satisfy 0 < lo < hi < inf, got {mu_range}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    grid = np.geomspace(lo, hi, COARSE_POINTS)
    params = _parameters([cfg for cfg, _ in cases])
    coarse_p1, coarse_ratio = _coarse_round(params, grid, n_max)

    targets = [target for _, target in cases]
    free = [case for case, target in enumerate(targets) if target is None or target <= 0]
    floored = [case for case, target in enumerate(targets) if target is not None and target > 0]

    # Each run of feasible grid points of a constrained case gives one
    # bisection job per end, with the grid neighbour beyond that end as its
    # infeasible side, or the end itself at the edge of the grid.
    intervals = {case: [] for case in floored}  # [(a, b, peak index or None)]
    sub_cases, sub_ends, lone = [], [], []
    if floored:
        target = np.array([targets[case] for case in floored])
        feasible = coarse_ratio[floored] >= target[:, None]
        run, edge = np.nonzero(np.diff(feasible, axis=1, prepend=False, append=False))
        run, start, stop = np.repeat(run[::2], 2), edge[::2], edge[1::2]
        inside = np.stack((start, stop - 1), axis=1).ravel()
        beyond = np.stack((np.maximum(start - 1, 0), np.minimum(stop, COARSE_POINTS - 1)),
                          axis=1).ravel()
        owner = np.array(floored)[run]
        bounds = _bisect(params, owner, grid[inside], grid[beyond], target[run], n_max)
        # A feasible sub-interval [a, b] is a peak over its own grid, or,
        # where bisection closed it to a point, that lone point.
        for case, a, b in zip(owner[::2].tolist(), bounds[::2].tolist(), bounds[1::2].tolist()):
            if b <= a:
                intervals[case].append((a, b, None))
                lone.append((case, a))
                continue
            intervals[case].append((a, b, len(free) + len(sub_cases)))
            sub_cases.append(case)
            sub_ends.append((a, b))
    # Bisection leaves each b - a at least half its tolerance: no log step is 0,
    # so the stacked np.geomspace rounds every row as a call of its own would.
    sub_grid = np.geomspace(*np.array(sub_ends).reshape(-1, 2).T, COARSE_POINTS, axis=1)
    sub_p1 = (_p1_snr_rows(sub_grid.ravel(), *params[:, np.repeat(sub_cases, COARSE_POINTS)],
                           n_max)[0].reshape(-1, COARSE_POINTS)
              if sub_cases else np.empty((0, COARSE_POINTS)))

    # The peaks: each unconstrained case's coarse grid, then the sub-interval
    # grids.  One golden section per interior local maximum of a peak's grid.
    peak_case = free + sub_cases
    peak_grid = np.concatenate((np.tile(grid, (len(free), 1)), sub_grid))
    peak_p1 = np.concatenate((coarse_p1[free], sub_p1))
    job_peak, i = _interior_maxima(peak_p1)
    job_case = np.array(peak_case, dtype=int)[job_peak]
    mids, steps = (_golden(params, job_case, peak_grid[job_peak, i - 1], peak_grid[job_peak, i + 1],
                           tol, n_max) if job_peak.size else (np.empty(0), np.empty(0, dtype=int)))

    # The final round: row k is peak k's best grid point, then come the
    # golden midpoints and the lone points.
    peaks = len(peak_case)
    top = peak_p1.argmax(axis=1)
    mu = np.concatenate((peak_grid[np.arange(peaks), top], mids, [a for _, a in lone]))
    owner = peak_case + job_case.tolist() + [case for case, _ in lone]
    probs, tail = _output_rows(mu, *params[:, owner], n_max)
    p1_at, snr_at = p1_rows(probs), snr_rows(probs, tail)[1]

    # The optimum of a peak starts at its best grid point, so it is never
    # below it, and moves to a golden midpoint only where that is higher.
    optimum = np.arange(peaks)
    for job, peak in enumerate(job_peak.tolist()):
        if p1_at[peaks + job] > p1_at[optimum[peak]]:
            optimum[peak] = peaks + job
    used = np.full(peaks, COARSE_POINTS)
    np.add.at(used, job_peak, steps + 3)
    # A best grid point on an end of the grid that no midpoint beats is a
    # maximum on the edge of the range.
    at_edge = ((top == 0) | (top == COARSE_POINTS - 1)) & (optimum == np.arange(peaks))
    outcomes = [(row, evaluations, not edge, ("lower" if first == 0 else "upper") if edge else None)
                for row, evaluations, edge, first
                in zip(optimum.tolist(), used.tolist(), at_edge.tolist(), top.tolist())]

    def result(case, row, **outcome):
        cfg = cases[case][0].replace(mu=float(mu[row]))
        dist = _row_distribution(cfg, probs[row], tail[row], n_max, config=cfg)
        return OptimizationResult(mu_opt=float(mu[row]), p1_max=dist.p(1),
                                  snr_at_opt=float(snr_at[row]),
                                  mandel_q_at_opt=mandel_q_or_nan(dist.probs),
                                  distribution=dist, snr_target=cases[case][1], **outcome)

    results, lone_rows = [], iter(range(peaks + mids.size, mu.size))
    unconstrained = iter(outcomes)  # their peaks come first, in case order
    for case, target in enumerate(targets):
        if case not in intervals:
            row, iterations, converged, boundary = next(unconstrained)
            results.append(result(case, row, iterations=iterations, converged=converged,
                                  boundary=boundary))
            continue
        if not intervals[case]:
            nan = math.nan
            results.append(OptimizationResult(
                mu_opt=nan, p1_max=nan, snr_at_opt=nan, mandel_q_at_opt=nan,
                iterations=COARSE_POINTS, converged=False, feasible=False, snr_target=target))
            continue
        iterations, chosen = COARSE_POINTS, None
        for a, b, peak in intervals[case]:
            if peak is None:
                row, converged, boundary = next(lone_rows), True, None
            else:
                row, evaluations, converged, boundary = outcomes[peak]
                iterations += evaluations
            if chosen is None or p1_at[row] > p1_at[chosen[0]]:
                # A peak on the upper end of a sub-interval inside the range
                # is the SNR boundary, not the edge of the search.
                hit = boundary == "upper" and b < mu_range[1]
                chosen = (row, iterations, hit or converged, None if hit else boundary, hit)
        row, iterations, converged, boundary, hit = chosen
        # The constrained optimum must actually satisfy the floor.
        if snr_at[row] < target - 1e-6:
            raise RuntimeError(
                f"internal error: constrained optimum violates SNR floor "
                f"({float(snr_at[row])} < {target})"
            )
        results.append(result(case, row, iterations=iterations, converged=converged,
                              boundary=boundary, constraint_active=hit))
    return results


def optimize_mu(
    cfg_template: SourceConfig,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
    n_max: int = DEFAULT_N_MAX,
) -> OptimizationResult:
    """Pump rate that maximizes the end-to-end single-photon probability.

    A logarithmic coarse scan of COARSE_POINTS (96) points brackets every
    local maximum; each bracket is refined by golden-section search to ``tol``
    absolute in mu.  The returned optimum is never below the best coarse-grid
    value.  A maximum sitting on the range boundary is flagged non-converged
    with the boundary named.

    Parameters
    ----------
    cfg_template:
        Source configuration whose ``mu`` field is ignored and swept.
    mu_range:
        Search interval (lo, hi], 0 < lo < hi < inf.
    tol:
        Absolute convergence tolerance in mu (> 0).
    """
    return optimize_mu_batch([cfg_template], mu_range, tol, n_max)[0]


def optimize_mu_batch(
    cfg_templates: Sequence[SourceConfig],
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
    n_max: int = DEFAULT_N_MAX,
) -> list:
    """:func:`optimize_mu` for each template, with the searches run
    together; each result equals that of its own optimize_mu call."""
    return _search([(cfg, None) for cfg in cfg_templates], mu_range, tol, n_max)


def max_p1_with_snr_floor(
    cfg_template: SourceConfig,
    snr_target: float,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
    n_max: int = DEFAULT_N_MAX,
) -> OptimizationResult:
    """Maximize P_1 over mu subject to SNR(mu) >= snr_target.

    SNR decreases with pump rate throughout the modeled regimes, but the
    search does not rely on it: every run of feasible points on the coarse
    grid is delimited by bisection at its grid crossings, and the
    unconstrained optimizer runs on each such sub-interval, over a grid of
    COARSE_POINTS points of its own.  A NaN target is
    rejected; an unreachable one, +inf included, yields an explicit
    infeasibility result instead of an exception.  A target <= 0 gives the
    unconstrained result with ``snr_target`` set.
    """
    return max_p1_with_snr_floor_batch([(cfg_template, snr_target)], mu_range, tol, n_max)[0]


def max_p1_with_snr_floor_batch(
    cases: Sequence[Tuple[SourceConfig, float]],
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
    n_max: int = DEFAULT_N_MAX,
) -> list:
    """:func:`max_p1_with_snr_floor` for each (template, target) case, with
    the searches run together; each result equals that of its own
    max_p1_with_snr_floor call."""
    return _search(list(cases), mu_range, tol, n_max)
