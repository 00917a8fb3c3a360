"""Pump-rate tuning: unconstrained and SNR-constrained maximization of P_1.

The single-photon probability is a smooth, in practice single-peaked function
of the pump rate, but unimodality is never assumed blindly: a coarse
logarithmic grid locates every local maximum and golden-section search
refines each candidate bracket.  The SNR constraint is handled through the
feasible set on the same grid, with bisection at every feasibility crossing.
Both searches send the candidate points of their next few steps to the loss
chain in one call and then take those steps as a one-step loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .config import SourceConfig
from .losses import output_distribution, p1_snr_curve
from .stats import DEFAULT_N_MAX, PhotonDistribution, mandel_q, snr

__all__ = ["OptimizationResult", "optimize_mu", "max_p1_with_snr_floor"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Search steps per loss-chain call: golden-section and bisection searches
# send every point their next _LOOKAHEAD steps could test at once, 15 for a
# bisection.  Of 3 to 6, 4 ran figure2() plus figure5() fastest: a deeper
# tree saves chain calls but costs more Python per step.
_LOOKAHEAD = 4
DEFAULT_MU_RANGE = (1e-4, 2.0)
MIN_COARSE_POINTS = 64


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


def _result_at(cfg: SourceConfig, mu: float, n_max: int, **outcome) -> OptimizationResult:
    """The result at pump rate ``mu`` (cfg.mu is ignored), from one
    loss-chain evaluation that the result keeps as its distribution."""
    dist = output_distribution(cfg.replace(mu=mu), n_max)
    return OptimizationResult(mu_opt=mu, p1_max=dist.p(1), snr_at_opt=snr(dist),
                              mandel_q_at_opt=mandel_q(dist), distribution=dist, **outcome)


def _coarse_grid(mu_range: Tuple[float, float], coarse_points: int, tol: float) -> np.ndarray:
    """Logarithmic grid of at least MIN_COARSE_POINTS pump rates over
    ``mu_range``, after the checks of the inputs both searches share."""
    lo, hi = mu_range
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"mu_range must satisfy 0 < lo < hi < inf, got {mu_range}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    return np.geomspace(lo, hi, max(int(coarse_points), MIN_COARSE_POINTS))


def _lookahead(state, done, points, test, follow, evaluate):
    """Run the one-step search

        while not done(state):
            state = follow(state, test(*[f(x) for x in points(state)]))

    with _LOOKAHEAD steps per call of ``evaluate``, which maps a list of
    points to an array of their values f(x).  ``follow(state, outcome)`` is
    the successor of ``state`` on a true or false test.  Each call expands
    the next _LOOKAHEAD levels of the tree of states and evaluates, at once,
    every point those states read that no earlier call did; the walk down
    the tree then tests one state per level as the one-step loop does.  It
    reaches the same states wherever ``evaluate`` gives a point the same
    value in any batch.  The tree is expanded whole, past states that are
    done: testing every state cost more than the points it would save.
    Returns (final state, steps taken).
    """
    values = {}
    steps = 0
    while not done(state):
        level, ahead = [state], []
        for depth in range(_LOOKAHEAD):
            if depth:
                level = [child for node in level
                         for child in (follow(node, True), follow(node, False))]
            for node in level:
                ahead += points(node)
        batch = [x for x in dict.fromkeys(ahead) if x not in values]
        values.update(zip(batch, evaluate(batch).tolist()))
        for _ in range(_LOOKAHEAD):
            if done(state):
                break
            state = follow(state, test(*[values[x] for x in points(state)]))
            steps += 1
    return state, steps


def _golden_max(
    f: Callable[[Sequence[float]], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
) -> Tuple[float, float, int]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals).

    ``f`` maps a list of points to an array of values.  A state is the
    bracket (a, b) with its inner points (c, d), and the side of the larger
    of f(c) and f(d) is kept.  ``evals`` counts the two first inner points,
    one per step and the final midpoint.
    """
    def follow(state, keep_left):
        a, b, c, d = state
        if keep_left:
            return a, d, d - _GOLDEN * (d - a), c
        return c, b, d, c + _GOLDEN * (b - c)

    (a, b, _, _), steps = _lookahead(
        (lo, hi, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)),
        done=lambda state: not (state[1] - state[0]) > tol,
        points=lambda state: state[2:],
        test=lambda fc, fd: fc >= fd,
        follow=follow,
        evaluate=f,
    )
    x = 0.5 * (a + b)
    return x, float(f([x])[0]), steps + 3


def _local_maxima(values: np.ndarray) -> list:
    """Indices of strict-or-plateau local maxima of a sampled curve."""
    idx = []
    n = len(values)
    for i in range(n):
        left = values[i - 1] if i > 0 else -math.inf
        right = values[i + 1] if i < n - 1 else -math.inf
        if values[i] >= left and values[i] >= right:
            idx.append(i)
    return idx


def optimize_mu(
    cfg_template: SourceConfig,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
    coarse_points: int = 96,
    n_max: int = DEFAULT_N_MAX,
) -> OptimizationResult:
    """Pump rate that maximizes the end-to-end single-photon probability.

    A logarithmic coarse scan (at least 64 points) brackets every local
    maximum; each bracket is refined by golden-section search to ``tol``
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
    grid = _coarse_grid(mu_range, coarse_points, tol)
    points = len(grid)

    def p1_of(mu: Sequence[float]) -> np.ndarray:
        return p1_snr_curve(cfg_template, mu, n_max)[0]

    grid_p1, _ = p1_snr_curve(cfg_template, grid, n_max)
    best_x = float(grid[int(np.argmax(grid_p1))])
    best_f = float(np.max(grid_p1))
    iterations = points

    candidates = _local_maxima(grid_p1)
    interior_best: Tuple[float, float] = (best_x, best_f)
    for i in candidates:
        if i == 0 or i == points - 1:
            continue
        a, b = float(grid[i - 1]), float(grid[i + 1])
        x, fx, used = _golden_max(p1_of, a, b, tol)
        iterations += used
        if fx > interior_best[1]:
            interior_best = (x, fx)
    mu_opt, p1_max = interior_best

    boundary = None
    converged = True
    edge = int(np.argmax(grid_p1))
    if (edge == 0 or edge == points - 1) and best_f >= p1_max:
        boundary = "lower" if edge == 0 else "upper"
        converged = False
        mu_opt, p1_max = best_x, best_f

    # Guarantee: never below the coarse-grid maximum.
    if best_f > p1_max:
        mu_opt, p1_max = best_x, best_f

    return _result_at(cfg_template, mu_opt, n_max, iterations=iterations,
                      converged=converged, boundary=boundary)


def _bisect_snr_boundary(
    cfg: SourceConfig,
    feasible: float,
    infeasible: float,
    target: float,
    n_max: int,
    tol: float = 1e-10,
) -> float:
    """Feasibility boundary between two pump rates, on its feasible side.

    ``feasible`` has SNR >= target and ``infeasible`` has SNR < target; they
    may come in either order.  Returns the feasible end of the final bracket.
    """
    def mid(state):
        return 0.5 * (state[0] + state[1])

    def done(state):
        ok, bad = state
        return not abs(bad - ok) > tol * max(1.0, ok, bad)

    (ok, _), _ = _lookahead(
        (feasible, infeasible),
        done=done,
        points=lambda state: (mid(state),),
        test=lambda snr_mid: snr_mid >= target,
        follow=lambda state, ok_mid: (mid(state), state[1]) if ok_mid else (state[0], mid(state)),
        evaluate=lambda mu: p1_snr_curve(cfg, mu, n_max)[1],
    )
    return ok


def max_p1_with_snr_floor(
    cfg_template: SourceConfig,
    snr_target: float,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
    tol: float = 1e-6,
    coarse_points: int = 96,
    n_max: int = DEFAULT_N_MAX,
) -> OptimizationResult:
    """Maximize P_1 over mu subject to SNR(mu) >= snr_target.

    SNR decreases with pump rate throughout the modeled regimes, but the
    search does not rely on it: every run of feasible points on the coarse
    grid is delimited by bisection at its grid crossings, and the
    unconstrained optimizer runs on each such sub-interval.  A NaN target is
    rejected; an unreachable one, +inf included, yields an explicit
    infeasibility result instead of an exception.
    """
    if math.isnan(snr_target):
        raise ValueError("snr_target must not be NaN")
    if snr_target <= 0:
        result = optimize_mu(cfg_template, mu_range, tol, coarse_points, n_max)
        return replace(result, snr_target=snr_target)
    grid = _coarse_grid(mu_range, coarse_points, tol)
    points = len(grid)
    _, grid_snr = p1_snr_curve(cfg_template, grid, n_max)
    feasible_mask = grid_snr >= snr_target
    iterations = points

    if not feasible_mask.any():
        nan = math.nan
        return OptimizationResult(
            mu_opt=nan, p1_max=nan, snr_at_opt=nan, mandel_q_at_opt=nan,
            iterations=iterations, converged=False, feasible=False,
            snr_target=snr_target,
        )

    # Feasible sub-intervals [start, end] in grid coordinates, boundaries
    # refined by bisection where the mask flips.
    intervals = []
    i = 0
    while i < points:
        if feasible_mask[i]:
            j = i
            while j + 1 < points and feasible_mask[j + 1]:
                j += 1
            a = float(grid[i])
            b = float(grid[j])
            if i > 0:
                a = _bisect_snr_boundary(cfg_template, a, float(grid[i - 1]), snr_target, n_max)
            if j + 1 < points:
                b = _bisect_snr_boundary(cfg_template, b, float(grid[j + 1]), snr_target, n_max)
            intervals.append((a, b))
            i = j + 1
        else:
            i += 1

    best: Optional[OptimizationResult] = None
    for a, b in intervals:
        if b <= a:
            sub = _result_at(cfg_template, a, n_max, iterations=iterations, converged=True)
        else:
            sub = optimize_mu(cfg_template, (a, b), tol, coarse_points, n_max)
            iterations += sub.iterations
        if best is None or sub.p1_max > best.p1_max:
            # A peak on the upper end of a sub-interval inside the range is
            # the SNR boundary, not the edge of the search.
            hit_boundary = sub.boundary == "upper" and b < mu_range[1]
            best = replace(
                sub,
                iterations=iterations,
                converged=hit_boundary or sub.converged,
                boundary=None if hit_boundary else sub.boundary,
                snr_target=snr_target,
                constraint_active=hit_boundary,
            )
    assert best is not None
    # The constrained optimum must actually satisfy the floor.
    if best.snr_at_opt < snr_target - 1e-6:
        raise RuntimeError(
            f"internal error: constrained optimum violates SNR floor "
            f"({best.snr_at_opt} < {snr_target})"
        )
    return best
