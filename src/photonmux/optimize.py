"""Pump-rate tuning: unconstrained and SNR-constrained maximization of P_1.

The single-photon probability is a smooth, in practice single-peaked function
of the pump rate, but unimodality is never assumed blindly: a coarse
logarithmic grid of COARSE_POINTS pump rates locates every local maximum and
golden-section search refines each candidate bracket.  The SNR constraint is
handled through the feasible set on the same grid, with bisection at every
feasibility crossing.

The one batch entry point :func:`search`, which ``figure2``, ``figure5``
and ``validate`` use, runs all its searches together in phases over one
table of feasible runs, each a run of a case's coarse-grid points that meet
its SNR floor: the coarse grid, one for the whole call, then the bisections
at every run end inside the grid, then the runs' own grids, then every golden
section, then the optima.  A case without a floor has the floor -inf, so its
one run is the whole coarse grid, whose rows it reuses.  A phase holds the
brackets of all its jobs in numpy arrays, with the index of the search each
job serves, and each round takes one step of every live job: a few
elementwise operations and one call of the loss chain's closed form for
P_1 and the SNR, ``losses._p1_snr_rows``, or ``losses._p1_rows`` in the
rounds that read P_1 alone: the golden sections and the runs' own grids.
The last round evaluates each golden section's final midpoint together with
every other candidate optimum in one call of ``losses._merits``, which reads
the figures of merit of whole output rows as the sweep records do, and each
result's numbers are those of its optimum's row.
``figure2()`` takes 29 rounds for its 11 searches and ``figure5()`` 59 for
its 72.  Every result, ``iterations`` included, equals that of the search
run alone with one loss-chain evaluation per step: numpy's elementwise
float64 arithmetic rounds as Python's does, one operation at a time, and a
point's values do not depend on the rows it is evaluated with.  Every search
evaluates the chain at the truncation bound ``stats.DEFAULT_N_MAX``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import SourceConfig
# output_distribution and p1_snr_curve stay module attributes: perfbench's
# traced pass and its chain-call probe wrap them by name.
from .losses import (  # noqa: F401
    _merits,
    _p1_rows,
    _p1_snr_rows,
    _parameters,
    output_distribution,
    p1_snr_curve,
)

__all__ = [
    "OptimizationResult",
    "search",
    "optimize_mu",
    "max_p1_with_snr_floor",
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
    The figures of merit are read from the loss chain's output row at
    ``mu_opt``, which ``output_distribution(template.replace(mu=mu_opt))`` gives.
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


def _interior_maxima(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(row, index) of the strict-or-plateau local maxima inside each row of
    ``values``, in row-major order: the points other than the two ends that
    are at least as high as both neighbours."""
    inner = values[:, 1:-1]
    rows, index = np.nonzero((inner >= values[:, :-2]) & (inner >= values[:, 2:]))
    return rows, index + 1


def _coarse_round(params: np.ndarray, grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(P_1, SNR) over ``grid`` with the parameters of each case, as arrays
    with one row per case.  Cases of equal parameters share their rows; kept
    in order of first appearance, the rows sent are those the unshared round
    would send, so TruncationError names the same pump rate."""
    keys = [params[:, case].tobytes() for case in range(params.shape[1])]
    slot = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    rows = np.array([slot[key] for key in keys])
    sent = np.unique(rows, return_index=True)[1]  # the first case of each slot
    p1, ratio = _p1_snr_rows(np.tile(grid, sent.size), *params[:, np.repeat(sent, grid.size)])
    return p1.reshape(sent.size, -1)[rows], ratio.reshape(sent.size, -1)[rows]


def _bisect(params: np.ndarray, owner: np.ndarray, feasible: np.ndarray,
            infeasible: np.ndarray, target: np.ndarray, tol: float = _BISECT_TOL) -> np.ndarray:
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
        passed = _p1_snr_rows(mid, *row)[1] >= target
        ok, bad = np.where(passed, mid, ok), np.where(passed, bad, mid)


def _golden(params: np.ndarray, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Golden-section maximizations of P_1 on [lo[i], hi[i]], each bracket
    (a, b) with inner points c < d keeping the side of the larger of P_1(c)
    and P_1(d) until b - a <= tol.  Returns the final midpoints, not yet
    evaluated, and the steps each search took.  The live searches are kept
    packed, and a search leaves them when its bracket closes."""
    mids, steps = np.empty(lo.size), np.zeros(lo.size, dtype=int)
    live, a, b, row = np.arange(lo.size), lo, hi, params[:, owner]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = np.split(_p1_rows(np.concatenate((c, d)), *np.tile(row, 2)), 2)
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
        f_new = _p1_rows(new, *row)
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        step += 1


def search(cases: Sequence[Tuple[SourceConfig, Optional[float]]],
           mu_range: Tuple[float, float] = DEFAULT_MU_RANGE, tol: float = 1e-6) -> list:
    """The results of the (template, snr_target) cases, all searched
    together: :func:`max_p1_with_snr_floor` for each target, and
    :func:`optimize_mu` for a target of None.  Each result equals that of
    its case searched alone.

    The phases run in order, each in rounds of one step for every live job
    (see the module docstring), over one table of feasible runs: a run per
    run of a case's coarse-grid points whose SNR meets its floor, its ends
    bisected.  A case without a floor (a target of None or <= 0) has the
    floor -inf, so its one run is the whole grid, whose coarse rows it
    reuses; every other run gets a grid of its own.  Each interior local
    maximum of a run's grid gives it one golden section.  The final round
    evaluates, for every run, its best grid point, or its lone point where
    bisection closed it to one, and the golden sections' midpoints.  A
    case's result is its first run of the highest P_1.

    ``tol`` must be at least 4 float spacings at ``mu_range``'s upper end: a
    golden bracket narrower than a few spacings of the floats it lies among
    can stop shrinking, and ``b - a <= tol`` would never come true.
    """
    if any(target is not None and math.isnan(target) for _, target in cases):
        raise ValueError("snr_target must not be NaN")
    if not cases:
        return []
    lo, hi = mu_range
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"mu_range must satisfy 0 < lo < hi < inf, got {mu_range}")
    least = 4.0 * float(np.spacing(hi))
    if not tol >= least:
        raise ValueError(f"tol must be >= {least!r}, 4 float spacings at mu_range[1], got {tol}")
    grid = np.geomspace(lo, hi, COARSE_POINTS)
    params = _parameters([cfg for cfg, _ in cases])
    coarse_p1, coarse_ratio = _coarse_round(params, grid)

    # Each run of feasible grid points gives one bisection job per end, with
    # the grid neighbour beyond that end as its infeasible side, or the end
    # itself at the edge of the grid, a bracket closed already.  The runs are
    # in order of their case, then of the grid.
    floor = np.array([-math.inf if target is None or target <= 0 else target
                      for _, target in cases])
    feasible = coarse_ratio >= floor[:, None]
    case, cut = np.nonzero(np.diff(feasible, axis=1, prepend=False, append=False))
    case, start, stop = case[::2], cut[::2], cut[1::2]
    inside = np.stack((start, stop - 1), axis=1).ravel()
    beyond = np.stack((np.maximum(start - 1, 0), np.minimum(stop, COARSE_POINTS - 1)),
                      axis=1).ravel()
    bounds = _bisect(params, np.repeat(case, 2), grid[inside], grid[beyond],
                     np.repeat(floor[case], 2))
    a, b = bounds[::2], bounds[1::2]
    # A run is a peak over its grid, or, where bisection closed it to a
    # point, that lone point.  Bisection leaves each other b - a at least
    # half its tolerance: no log step is 0, so the stacked np.geomspace
    # rounds every row as a call of its own would.
    runs, peak = case.size, np.flatnonzero(b > a)
    own = peak[floor[case[peak]] > -math.inf]
    peak_grid, peak_p1 = np.tile(grid, (runs, 1)), coarse_p1[case]
    if own.size:
        peak_grid[own] = np.geomspace(a[own], b[own], COARSE_POINTS, axis=1)
        own_p1 = _p1_rows(peak_grid[own].ravel(),
                          *params[:, np.repeat(case[own], COARSE_POINTS)])
        peak_p1[own] = own_p1.reshape(own.size, COARSE_POINTS)
    peak_grid, peak_p1 = peak_grid[peak], peak_p1[peak]

    # One golden section per interior local maximum of a peak's grid.
    job_peak, i = _interior_maxima(peak_p1)
    job_run = peak[job_peak]
    mids, steps = (_golden(params, case[job_run], peak_grid[job_peak, i - 1],
                           peak_grid[job_peak, i + 1], tol)
                   if job_run.size else (np.empty(0), np.empty(0, dtype=int)))

    # The final round: row k is run k's best grid point or lone point, then
    # come the golden midpoints.
    first = np.zeros(runs, dtype=int)
    first[peak] = peak_p1.argmax(axis=1)
    mu = np.concatenate((a, mids))
    mu[peak] = peak_grid[np.arange(peak.size), first[peak]]
    _, p1_at, _, snr_at, q_at = _merits(mu, *params[:, np.concatenate((case, case[job_run]))])

    # The optimum of a run starts at its best grid point, so it is never
    # below it, and moves to a golden midpoint only where that is higher.
    row = np.arange(runs)
    for job, run in enumerate(job_run.tolist()):
        if p1_at[runs + job] > p1_at[row[run]]:
            row[run] = runs + job
    # The coarse grid's points count once, in every case's own COARSE_POINTS.
    evaluations = np.zeros(runs, dtype=int)
    evaluations[own] = COARSE_POINTS
    np.add.at(evaluations, job_run, steps + 3)
    # A best grid point on an end of a peak's grid that no midpoint beats is
    # a maximum on the edge of the range.
    at_edge = (b > a) & ((first == 0) | (first == COARSE_POINTS - 1)) & (row == np.arange(runs))

    results, runs_of = [], np.searchsorted(case, np.arange(len(cases) + 1)).tolist()
    for (_, target), begin, end in zip(cases, runs_of, runs_of[1:]):
        if begin == end:
            nan = math.nan
            results.append(OptimizationResult(
                mu_opt=nan, p1_max=nan, snr_at_opt=nan, mandel_q_at_opt=nan,
                iterations=COARSE_POINTS, converged=False, feasible=False, snr_target=target))
            continue
        best = max(range(begin, end), key=lambda run: p1_at[row[run]])
        k, edge = int(row[best]), bool(at_edge[best])
        boundary = ("lower" if first[best] == 0 else "upper") if edge else None
        # A peak on the upper end of a sub-interval inside the range is the
        # SNR boundary, not the edge of the search.
        hit = boundary == "upper" and bool(b[best] < hi)
        # The optimum must actually satisfy the floor, which is 0 without one.
        if snr_at[k] < (target or 0.0) - 1e-6:
            raise RuntimeError(
                f"internal error: constrained optimum violates SNR floor "
                f"({snr_at[k]} < {target})"
            )
        results.append(OptimizationResult(
            mu_opt=float(mu[k]), p1_max=p1_at[k], snr_at_opt=snr_at[k], mandel_q_at_opt=q_at[k],
            iterations=COARSE_POINTS + int(evaluations[begin:best + 1].sum()),
            converged=hit or not edge, boundary=None if hit else boundary, snr_target=target,
            constraint_active=hit))
    return results


def optimize_mu(
    cfg_template: SourceConfig,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
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
        Absolute convergence tolerance in mu, >= 4 float spacings at mu_range[1].
    """
    return search([(cfg_template, None)], mu_range, tol)[0]


def max_p1_with_snr_floor(
    cfg_template: SourceConfig,
    snr_target: float,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
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
    return search([(cfg_template, snr_target)], mu_range, tol)[0]
