import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from photonmux import (
    SourceConfig,
    losses,
    max_p1_with_snr_floor,
    optimize,
    optimize_mu,
    output_distribution,
    sweeps,
)
from photonmux.losses import p1_snr_curve
from photonmux.stats import (
    DEFAULT_N_MAX,
    TruncationError,
    mandel_q,
    mandel_q_or_nan,
    p1_rows,
    snr,
    snr_rows,
)


def test_ideal_single_window_peaks_at_unit_mu():
    # Calculus: P1 = mu e^-mu is maximal at mu = 1.
    result = optimize_mu(SourceConfig(m=0, mu=1e-3), mu_range=(1e-4, 2.0), tol=1e-8)
    assert result.converged
    assert result.mu_opt == pytest.approx(1.0, abs=1e-6)
    assert result.p1_max == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert result.mandel_q_at_opt == pytest.approx(0.0, abs=1e-10)


def test_reported_p1_matches_reevaluation():
    cfg = SourceConfig(m=3, mu=1e-3, e_h=0.85, e_s=0.9, e_sw_db=0.5)
    result = optimize_mu(cfg)
    dist = output_distribution(cfg.replace(mu=result.mu_opt))
    assert result.p1_max == pytest.approx(dist.p(1), abs=1e-9)
    assert result.snr_at_opt == pytest.approx(dist.p(1) / (1 - dist.p(0) - dist.p(1)), rel=1e-9)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_matches_exhaustive_grid(seed):
    rng = np.random.default_rng(seed)
    cfg = SourceConfig(
        m=int(rng.integers(0, 6)),
        mu=1e-3,
        e_h=float(rng.uniform(0.5, 1.0)),
        e_s=float(rng.uniform(0.5, 1.0)),
        e_sw_db=float(rng.uniform(0.1, 1.5)),
    )
    result = optimize_mu(cfg, mu_range=(1e-4, 2.0))
    grid = np.linspace(1e-4, 2.0, 100_001)
    p1, _ = p1_snr_curve(cfg, grid)
    best = int(np.argmax(p1))
    assert abs(result.mu_opt - grid[best]) < 1e-5
    assert result.p1_max >= p1[best] - 1e-8


def test_never_below_coarse_grid():
    cfg = SourceConfig(m=4, mu=1e-3, e_h=0.85, e_s=0.9, e_sw_db=1.0)
    result = optimize_mu(cfg)
    grid = np.geomspace(1e-4, 2.0, 96)
    p1, _ = p1_snr_curve(cfg, grid)
    assert result.p1_max >= float(p1.max()) - 1e-15


def test_boundary_maximum_flagged():
    # The ideal single-window curve still rises at mu = 0.8.
    result = optimize_mu(SourceConfig(m=0, mu=1e-3), mu_range=(0.1, 0.8))
    assert not result.converged
    assert result.boundary == "upper"
    assert result.mu_opt == pytest.approx(0.8, rel=1e-12)
    # A floor met over the whole range leaves the edge of the range, not the
    # SNR boundary, as the reason.
    floored = max_p1_with_snr_floor(SourceConfig(m=0, mu=1e-3), 1e-3,
                                    mu_range=(0.1, 0.8))
    assert (floored.mu_opt, floored.boundary, floored.converged) == (0.8, "upper", False)
    assert not floored.constraint_active


_INPUT_CFG = SourceConfig(m=2, mu=1e-3, e_h=0.85, e_s=0.9, e_sw_db=0.5)


@pytest.mark.parametrize("call,match", [
    (lambda: optimize_mu(_INPUT_CFG, tol=math.nan), "tol"),
    (lambda: optimize_mu(_INPUT_CFG, tol=0.0), "tol"),
    (lambda: max_p1_with_snr_floor(_INPUT_CFG, 50.0, tol=-1.0), "tol"),
    (lambda: max_p1_with_snr_floor(_INPUT_CFG, 1e9, tol=math.nan), "tol"),
    (lambda: max_p1_with_snr_floor(_INPUT_CFG, math.nan), "snr_target"),
    (lambda: optimize_mu(_INPUT_CFG, mu_range=(1e-4, math.inf)), "mu_range"),
    (lambda: max_p1_with_snr_floor(_INPUT_CFG, 50.0, mu_range=(1e-4, math.inf)), "mu_range"),
    (lambda: optimize_mu(_INPUT_CFG, mu_range=(math.nan, 2.0)), "mu_range"),
    (lambda: max_p1_with_snr_floor(_INPUT_CFG, 5.0, mu_range=(0.5, 0.5)), "mu_range"),
], ids=["nan-tol", "zero-tol", "negative-tol-constrained", "nan-tol-infeasible",
        "nan-target", "infinite-range", "infinite-range-constrained", "nan-range",
        "empty-range-constrained"])
def test_rejects_invalid_search_inputs(call, match):
    # Rejected up front, before any loss-chain call can warn or fail.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


def test_tol_below_float_spacing_fails_before_any_core_call(monkeypatch):
    # A golden bracket cannot shrink below the spacing of the floats it lies
    # among, so a tol under it would never end the search.
    calls = _counted_rows(monkeypatch, "_p1_rows", "_p1_snr_rows", "_output_rows")
    cfg = SourceConfig(m=2, mu=0.1)
    for mu_range, least in (((1e-4, 2.0), 4 * 2.0**-51), ((0.5, 1e3), 4 * 2.0**-43)):
        assert least == 4 * np.spacing(mu_range[1])
        with pytest.raises(ValueError, match=rf"^tol must be >= {least!r}, .* got 1e-16$"):
            optimize_mu(cfg, mu_range, tol=1e-16)
        with pytest.raises(ValueError, match="tol must be >="):
            max_p1_with_snr_floor(cfg, 5.0, mu_range, tol=least * (1 - 2.0**-52))
    assert calls == []


# A dim source whose P1 peaks near mu = 250: its output stays well inside the
# truncation bound up to mu = 1e3.
_DIM_CFG = SourceConfig(m=0, mu=0.1, e_s=0.004)


@pytest.mark.parametrize("cases,mu_range", [
    ("figures", optimize.DEFAULT_MU_RANGE),
    ([(SourceConfig(m=0, mu=0.1), None)], (0.9, 1.1)),
    ([(SourceConfig(m=0, mu=0.1), None), (SourceConfig(m=3, mu=0.1), 5.0)], (1e-4, 3.0)),
    ([(_DIM_CFG, None), (_DIM_CFG.replace(m=3, e_h=0.85), 2.0)], (100.0, 300.0)),
    ([(_DIM_CFG.replace(m=2, r_dark=5e6), None), (_DIM_CFG.replace(m=3, e_h=0.85), 20.0)],
     (0.5, 1e3)),
], ids=["fig2-fig5", "unit-peak", "hi-3", "hi-300", "hi-1e3"])
def test_smallest_accepted_tol_ends_the_search(cases, mu_range):
    # Each golden bracket closes within 4 float spacings at the top of the
    # range, on the optimum that a coarser tol finds.
    if cases == "figures":
        fig2, fig5 = _fig2_and_fig5_cases()
        cases = [(cfg, None) for cfg in fig2] + fig5
    least = 4 * float(np.spacing(mu_range[1]))
    finest = optimize.search(cases, mu_range, least)
    coarse = optimize.search(cases, mu_range, 1e-9)
    assert all(result.feasible and result.converged for result in finest)
    for fine, rough in zip(finest, coarse):
        assert fine.mu_opt == pytest.approx(rough.mu_opt, rel=1e-6)
        assert fine.p1_max >= rough.p1_max - 1e-15


def test_result_fields_are_read_from_the_row_at_its_optimum():
    # The distribution that output_distribution gives at the optimum is the
    # row the result read its numbers from, bit for bit.
    cfg = SourceConfig(m=3, mu=1e-3, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6)
    results = [optimize_mu(cfg), max_p1_with_snr_floor(cfg, 0.0),
               max_p1_with_snr_floor(cfg, 50.0)]
    assert results[2].constraint_active
    for result in results:
        want = output_distribution(cfg.replace(mu=result.mu_opt))
        got = (result.p1_max, result.snr_at_opt, result.mandel_q_at_opt)
        assert all(type(value) is float for value in got)
        assert all(map(_same_bits, got, (want.p(1), snr(want), mandel_q(want))))


class TestConstrained:
    CFG = SourceConfig(m=4, mu=1e-3, e_h=0.85, e_s=0.9, e_sw_db=0.5)

    def test_vacuous_target_equals_unconstrained(self):
        plain = optimize_mu(self.CFG)
        constrained = max_p1_with_snr_floor(self.CFG, 1e-9)
        assert constrained.mu_opt == pytest.approx(plain.mu_opt, abs=1e-5)
        assert constrained.p1_max == pytest.approx(plain.p1_max, rel=1e-8)
        assert not constrained.constraint_active

    def test_floor_satisfied_and_active(self):
        result = max_p1_with_snr_floor(self.CFG, 50.0)
        assert result.feasible
        assert result.constraint_active
        assert result.snr_at_opt >= 50.0 - 1e-6
        # The unconstrained optimum has lower SNR, so the constrained P1 is lower.
        assert result.p1_max < optimize_mu(self.CFG).p1_max

    def test_p1_non_increasing_in_target(self):
        targets = [5.0, 10.0, 20.0, 50.0, 100.0, 200.0]
        values = [max_p1_with_snr_floor(self.CFG, t).p1_max for t in targets]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_infeasible_target(self):
        result = max_p1_with_snr_floor(self.CFG, 1e9)
        assert not result.feasible
        assert not result.converged
        assert math.isnan(result.mu_opt) and math.isnan(result.p1_max)
        assert math.isnan(result.snr_at_opt) and math.isnan(result.mandel_q_at_opt)
        # An infinite floor is a legal target that no pump rate meets.
        assert not max_p1_with_snr_floor(self.CFG, math.inf).feasible

    def test_result_echoes_target(self):
        assert max_p1_with_snr_floor(self.CFG, 25.0).snr_target == 25.0



def test_vacuum_optimum_reports_nan_mandel_q():
    # No photon survives a zero signal transmission, so every pump rate
    # gives the vacuum, where Q is undefined: reported NaN, as in tables.
    cfg = SourceConfig(m=2, mu=0.1, e_s=0.0)
    for result in (optimize_mu(cfg), max_p1_with_snr_floor(cfg, 5.0)):
        assert result.feasible and result.p1_max == 0.0
        assert math.isnan(result.mandel_q_at_opt)
        assert result.snr_at_opt == math.inf


# -- the phased searches against one-point-at-a-time references -------------


def _at(cfg, mu):
    """P1 and the SNR at one pump rate, from a p1_snr_curve call of its own."""
    p1, ratio = p1_snr_curve(cfg, [mu])
    return float(p1[0]), float(ratio[0])


def _ref_golden(cfg, lo, hi, tol):
    """Golden-section search with one evaluation per step: (x, P1(x), evaluations)."""
    a, b = lo, hi
    c = b - optimize._GOLDEN * (b - a)
    d = a + optimize._GOLDEN * (b - a)
    fc, fd = _at(cfg, c)[0], _at(cfg, d)[0]
    evals = 2
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - optimize._GOLDEN * (b - a)
            fc = _at(cfg, c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + optimize._GOLDEN * (b - a)
            fd = _at(cfg, d)[0]
        evals += 1
    x = 0.5 * (a + b)
    return x, _at(cfg, x)[0], evals + 1


def _ref_bisection(cfg, feasible, infeasible, target, tol=1e-10):
    """SNR-boundary bisection with one evaluation per step."""
    ok, bad = feasible, infeasible
    while abs(bad - ok) > tol * max(1.0, ok, bad):
        mid = 0.5 * (ok + bad)
        if _at(cfg, mid)[1] >= target:
            ok = mid
        else:
            bad = mid
    return ok


def _ref_result(cfg, mu, **outcome):
    """The result at ``mu``, its numbers read from the distribution there."""
    dist = output_distribution(cfg.replace(mu=mu))
    return optimize.OptimizationResult(
        mu_opt=mu, p1_max=dist.p(1), snr_at_opt=snr(dist),
        mandel_q_at_opt=mandel_q_or_nan(dist.probs), **outcome)


def _ref_optimize_mu(cfg, mu_range=optimize.DEFAULT_MU_RANGE, tol=1e-6):
    """optimize_mu as one search, one point at a time."""
    grid = np.geomspace(*mu_range, 96)
    grid_p1, _ = p1_snr_curve(cfg, grid)
    best = int(np.argmax(grid_p1))
    mu_opt, p1_max, iterations = float(grid[best]), float(grid_p1[best]), grid.size
    for i in range(1, grid.size - 1):
        if grid_p1[i] >= grid_p1[i - 1] and grid_p1[i] >= grid_p1[i + 1]:
            x, fx, evals = _ref_golden(cfg, float(grid[i - 1]), float(grid[i + 1]), tol)
            iterations += evals
            if fx > p1_max:
                mu_opt, p1_max = x, fx
    boundary = None
    if best in (0, grid.size - 1) and grid_p1[best] >= p1_max:
        boundary = "lower" if best == 0 else "upper"
        mu_opt = float(grid[best])
    return _ref_result(cfg, mu_opt, iterations=iterations, converged=boundary is None,
                       boundary=boundary)


def _ref_max_p1_with_snr_floor(cfg, target, mu_range=optimize.DEFAULT_MU_RANGE):
    """max_p1_with_snr_floor as one search, one point at a time."""
    if target <= 0:
        return replace(_ref_optimize_mu(cfg, mu_range), snr_target=target)
    grid = np.geomspace(*mu_range, 96).tolist()
    feasible = (p1_snr_curve(cfg, grid)[1] >= target).tolist() + [False]
    iterations, best, i = len(grid), None, 0
    while i < len(grid):
        if not feasible[i]:
            i += 1
            continue
        j = feasible.index(False, i) - 1
        a = _ref_bisection(cfg, grid[i], grid[i - 1], target) if i else grid[i]
        b = grid[j] if j == len(grid) - 1 else _ref_bisection(cfg, grid[j], grid[j + 1], target)
        if b <= a:
            sub = _ref_result(cfg, a, iterations=iterations, converged=True)
        else:
            sub = _ref_optimize_mu(cfg, (a, b))
            iterations += sub.iterations
        if best is None or sub.p1_max > best.p1_max:
            hit = sub.boundary == "upper" and b < mu_range[1]
            best = replace(sub, iterations=iterations, converged=hit or sub.converged,
                           boundary=None if hit else sub.boundary, snr_target=target,
                           constraint_active=hit)
        i = j + 1
    if best is None:
        nan = math.nan
        return optimize.OptimizationResult(
            mu_opt=nan, p1_max=nan, snr_at_opt=nan, mandel_q_at_opt=nan, iterations=iterations,
            converged=False, feasible=False, snr_target=target)
    return best


def _random_configs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield SourceConfig(m=int(rng.integers(0, 6)), mu=0.1, e_h=0.85, e_s=0.9,
                           e_sw_db=float(rng.choice([0.5, 1.0])),
                           r_dark=float(rng.choice([0.0, 5e6])))


def _one_round(cfgs, grids):
    """(P1, SNR) over each grid with its config's parameters, from one
    _p1_snr_rows call over all of them."""
    sizes = [grid.size for grid in grids]
    owner = np.repeat(np.arange(len(cfgs)), sizes)
    p1, ratio = losses._p1_snr_rows(np.concatenate(grids), *optimize._parameters(cfgs)[:, owner])
    cut = np.cumsum(sizes)[:-1]
    return list(zip(np.split(p1, cut), np.split(ratio, cut)))


def _same_bits(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def _close_snr(got, want):
    """The closed-form SNR against a row's: +inf at the same points, and
    otherwise within the relative bound p1_snr_curve states."""
    return got == want or abs(got / want - 1.0) < 1e-13


def _counted_rows(monkeypatch, *names):
    """Record (core name, rows) of each call that optimize makes to the named cores."""
    calls = []
    for name in names:
        core = getattr(optimize, name)

        def counted(mu, *args, _core=core, _name=name):
            calls.append((_name, mu.size))
            return _core(mu, *args)

        monkeypatch.setattr(optimize, name, counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curve_entries_equal_one_point_calls(seed):
    # The phased rounds rely on it: a point's P1 and SNR do not depend on the
    # batch, the block or the other configs it is evaluated with.
    rng = np.random.default_rng(100 + seed)
    for cfg in _random_configs(seed, 8):
        mu = rng.uniform(1e-4, 2.0, int(rng.integers(2, 80)))
        p1, ratio = p1_snr_curve(cfg, mu)
        for i, x in enumerate(mu):
            one_p1, one_ratio = p1_snr_curve(cfg, [x])
            assert one_p1[0].tobytes() == p1[i].tobytes()
            assert one_ratio[0].tobytes() == ratio[i].tobytes()

    # Grids longer than a block, with zero pumps, which take poisson_rows'
    # other branch, in some blocks and not in others.
    block = losses._BLOCK_ROWS
    for cfg in _random_configs(seed, 2):
        mu = rng.uniform(1e-4, 2.0, int(rng.integers(2 * block + 1, 3 * block)))
        mu[rng.choice(block, 3, replace=False)] = 0.0
        p1, ratio = p1_snr_curve(cfg, mu)
        for i in rng.choice(mu.size, 40, replace=False).tolist() + [0, block - 1, block]:
            one_p1, one_ratio = p1_snr_curve(cfg, [mu[i]])
            assert one_p1[0].tobytes() == p1[i].tobytes()
            assert one_ratio[0].tobytes() == ratio[i].tobytes()

    # One round over configs that mix m 0..5, e_h, switch loss and dark
    # counts, more rows than several blocks hold in all.
    cases = []
    for _ in range(12):
        cfg = SourceConfig(m=int(rng.integers(0, 6)), mu=0.1,
                           e_h=float(rng.choice([0.0, 0.5, 0.85, 1.0])), e_s=0.9,
                           e_sw_db=float(rng.choice([0.0, 0.5, 1.0, 3.0])),
                           r_dark=float(rng.choice([0.0, 5e6])))
        mu = rng.uniform(1e-4, 2.0, int(rng.integers(1, 120)))
        mu[rng.random(mu.size) < 0.1] = 0.0
        cases.append((cfg, mu))
    assert sum(mu.size for _, mu in cases) > 2 * block
    rounds = _one_round(*zip(*cases))
    for (cfg, mu), (p1, ratio) in zip(cases, rounds):
        curve_p1, curve_ratio = p1_snr_curve(cfg, mu)
        assert p1.tobytes() == curve_p1.tobytes() and ratio.tobytes() == curve_ratio.tobytes()
        for i in rng.choice(mu.size, min(mu.size, 5), replace=False):
            one_p1, one_ratio = p1_snr_curve(cfg, [mu[i]])
            assert one_p1[0].tobytes() == p1[i].tobytes()
            assert one_ratio[0].tobytes() == ratio[i].tobytes()
            dist = output_distribution(cfg.replace(mu=float(mu[i])))
            assert _same_bits(p1[i], dist.p(1)) and _close_snr(ratio[i], snr(dist))

    # The final round's one _output_rows call: each row with its own config's
    # parameters, over more than two blocks.  Its rows and tails equal those
    # of one-row calls and of the scalar path.
    cfgs = [cfg for cfg, _ in cases]
    params = optimize._parameters(cfgs)
    owner = rng.integers(0, len(cfgs), 3 * block - 7)
    mu = rng.uniform(1e-4, 2.0, owner.size)
    mu[rng.random(mu.size) < 0.1] = 0.0
    probs, tail = losses._output_rows(mu, *params[:, owner], 30)
    assert probs.shape == (mu.size, 31) and tail.shape == (mu.size,)
    for i in rng.choice(mu.size, 40, replace=False).tolist() + [0, block - 1, block, mu.size - 1]:
        one_probs, one_tail = losses._output_rows(mu[i:i + 1], *params[:, owner[i:i + 1]], 30)
        assert one_probs[0].tobytes() == probs[i].tobytes()
        assert one_tail[0].tobytes() == tail[i].tobytes()
        dist = output_distribution(cfgs[owner[i]].replace(mu=float(mu[i])))
        assert dist.probs.tobytes() == probs[i].tobytes() and _same_bits(dist.tail_mass, tail[i])


def _bisect(cfgs, ends, tol):
    """optimize._bisect over (feasible, infeasible, target) ends, each with
    the parameters of its config."""
    feasible, infeasible, target = map(np.array, zip(*ends))
    return optimize._bisect(optimize._parameters(cfgs), np.arange(len(cfgs)), feasible,
                            infeasible, target, tol).tolist()


@pytest.mark.parametrize("seed", [4, 5])
def test_bisection_equals_one_step_loop(seed):
    grid = np.geomspace(1e-4, 2.0, 96)
    groups = {1e-10: [], 1e-4: []}
    for cfg in _random_configs(seed, 6):
        _, ratio = p1_snr_curve(cfg, grid)
        for target in (5.0, 50.0, float(ratio[40])):
            crossing = np.flatnonzero(ratio < target)
            if crossing.size == 0 or crossing[0] == 0:
                continue
            i = int(crossing[0])
            ok, bad = float(grid[i - 1]), float(grid[i])
            for tol, group in groups.items():
                # The ends in the other order too: every test passes and the
                # bracket closes on the upper end.  Equal ends stay put.
                for ends in ((ok, bad, target), (bad, ok, 1.0 / target), (ok, ok, target)):
                    want = _ref_bisection(cfg, *ends, tol)
                    assert _bisect([cfg], [ends], tol) == [want]
                    group.append((cfg, ends, want))
    # All of them together, too.
    for tol, group in groups.items():
        cfgs, ends, want = zip(*group)
        assert _bisect(cfgs, ends, tol) == list(want)


def _golden(cfgs, brackets, tol):
    """(x, P1(x), evaluations) of optimize._golden on each (lo, hi) bracket
    with the parameters of its config."""
    lo, hi = map(np.array, zip(*brackets))
    mids, steps = optimize._golden(optimize._parameters(cfgs), np.arange(len(cfgs)), lo, hi, tol)
    return [(x, _at(cfg, x)[0], int(used) + 3) for cfg, x, used in zip(cfgs, mids.tolist(), steps)]


@pytest.mark.parametrize("seed", [6, 7])
def test_golden_section_equals_one_step_loop(seed):
    groups = {}
    for cfg in _random_configs(seed, 6):
        for lo, hi, tol in ((0.05, 0.9, 1e-6), (0.3, 0.31, 1e-9), (1e-4, 2.0, 1e-3),
                            (0.2, 0.2 + 1e-7, 1e-6)):
            want = _ref_golden(cfg, lo, hi, tol)
            assert _golden([cfg], [(lo, hi)], tol) == [want]
            groups.setdefault(tol, []).append((cfg, (lo, hi), want))
    for tol, group in groups.items():
        cfgs, brackets, want = zip(*group)
        assert _golden(cfgs, brackets, tol) == list(want)


def _fig2_and_fig5_cases():
    fig2 = [SourceConfig(m=m, mu=1e-4) for m in range(11)]
    fig5 = [(SourceConfig(m=m, mu=1e-4, e_h=0.85, e_s=0.9, e_sw_db=il), target)
            for il in (0.5, 1.0) for m in range(6)
            for target in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)]
    return fig2, fig5


_RANGE_ARGS = (optimize.DEFAULT_MU_RANGE, 1e-6)


def _same_results(got, want):
    """Every field by repr, which tells every float apart and reads NaN as
    equal to NaN."""
    assert [repr(result) for result in got] == [repr(result) for result in want]


def test_fig2_and_fig5_results_equal_one_step_searches():
    # Every field, iterations included, as the one-point-at-a-time searches
    # give it run one at a time; here all 83 searches of both figures run
    # together.
    fig2, fig5 = _fig2_and_fig5_cases()
    together = optimize.search([(cfg, None) for cfg in fig2] + fig5, *_RANGE_ARGS)
    alone = ([_ref_optimize_mu(cfg) for cfg in fig2]
             + [_ref_max_p1_with_snr_floor(cfg, target) for cfg, target in fig5])
    _same_results(together, alone)


def test_interleaved_cases_equal_one_step_searches():
    # Cases without a floor among the others, not first: each is one run over
    # the whole coarse grid, whose rows it reuses.  A floor of 1e-9 is met
    # over the whole grid too, but its run still evaluates a grid of its own.
    cfg = SourceConfig(m=3, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
    other = SourceConfig(m=1, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=1.0, r_dark=5e6)
    cases = [(cfg, 50.0), (cfg, None), (cfg, 1e9), (other, None), (cfg, -1.0), (other, 20.0),
             (cfg, 0.0), (cfg, 1e-9), (other, 1e9), (other, 0.0)]
    together = optimize.search(cases, *_RANGE_ARGS)
    alone = [_ref_optimize_mu(cfg) if target is None else _ref_max_p1_with_snr_floor(cfg, target)
             for cfg, target in cases]
    _same_results(together, alone)
    free, zero, tiny = together[1], together[6], together[7]
    assert (free.iterations, zero.iterations, tiny.iterations) == (124, 124, 220)
    assert free.mu_opt == zero.mu_opt == tiny.mu_opt
    assert [result.feasible for result in together] == [target != 1e9 for _, target in cases]


def _row_path_p1_snr(mu, transmission, e_h, windows, p_dark):
    """P1 and the SNR of each pump rate read from its output row, as the
    rounds read them before the closed form: the reference for its results."""
    p1, ratio = np.empty(mu.size), np.empty(mu.size)
    for rows, probs, tail in losses._blocks(mu, transmission, e_h, windows, p_dark,
                                            DEFAULT_N_MAX):
        p1[rows] = p1_rows(probs)
        ratio[rows] = snr_rows(probs, tail)[1]
    return p1, ratio


def test_closed_form_rounds_give_the_results_of_the_row_path(monkeypatch):
    # The closed-form SNR may differ from the row's in the last bits, so a
    # bisection step could in principle pass a floor that the row fails.  On
    # figure2, figure5 and this draw of 280 searches no result moves.
    rng = np.random.default_rng(32)
    cfgs = [SourceConfig(m=int(rng.integers(0, 11)), mu=0.1,
                         e_h=float(rng.choice([0.3, 0.85, 1.0, rng.uniform(0.05, 1.0)])),
                         e_s=float(rng.uniform(0.2, 1.0)), e_sw_db=float(rng.uniform(0.0, 3.0)),
                         r_dark=float(rng.choice([0.0, 5e6, 5e7])))
            for _ in range(40)]
    cases = [(cfg, target) for cfg in cfgs for target in (None, 0.0, 2.0, 5.0, 20.0, 100.0, 1e9)]
    closed = optimize.search(cases, *_RANGE_ARGS)
    figures = (sweeps.figure2, sweeps.figure5)
    tables = [figure() for figure in figures]

    rows = []

    def row_path(mu, *params):
        rows.append(mu.size)
        return _row_path_p1_snr(mu, *params)

    monkeypatch.setattr(optimize, "_p1_snr_rows", row_path)
    monkeypatch.setattr(optimize, "_p1_rows", lambda mu, *params: row_path(mu, *params)[0])
    _same_results(closed, optimize.search(cases, *_RANGE_ARGS))
    assert any(result.constraint_active for result in closed)
    assert any(not result.feasible for result in closed)
    for table, figure in zip(tables, figures):
        rows.clear()
        row_table = figure()
        assert rows
        assert (table.to_csv(), table.to_json()) == (row_table.to_csv(), row_table.to_json())


def test_searches_equal_one_step_searches_on_a_warped_pump_axis(monkeypatch):
    # The chain's SNR falls with the pump rate, so its feasible sets start at
    # the low end of the range.  Evaluated at mu (1.5 + sin(3 ln mu)), both
    # P1 and the SNR oscillate over the range: six or seven local maxima per
    # coarse grid, and at target 8 a second feasible run that starts and ends
    # inside the range, each end bisected.
    def warped(core):
        return lambda mu, *args: core(mu * (1.5 + np.sin(3.0 * np.log(mu))), *args)

    for name in ("_p1_rows", "_p1_snr_rows", "_output_rows"):
        core = warped(getattr(losses, name))
        for module in (losses, optimize):
            monkeypatch.setattr(module, name, core)
    cfgs = list(_random_configs(8, 3))
    cases = [(cfg, None) for cfg in cfgs] + [(cfg, target) for cfg in cfgs
                                             for target in (0.0, 3.0, 8.0, 30.0)]
    together = optimize.search(cases, *_RANGE_ARGS)
    alone = [_ref_optimize_mu(cfg) if target is None else _ref_max_p1_with_snr_floor(cfg, target)
             for cfg, target in cases]
    _same_results(together, alone)
    assert all(result.feasible for result in together)
    assert any(result.constraint_active for result in together)
    assert any(result.boundary == "lower" for result in together)


def test_figure_searches_share_core_rounds(monkeypatch):
    # One core call per round for all of a figure's searches: the rounds
    # that read the SNR, the coarse grid and the bisections, then those that
    # read P1 alone, the runs' own grids and the golden sections.  The last
    # round keeps whole output rows, and each result reads its numbers from
    # its optimum's row there: the search evaluates no optimum a second time.
    calls = _counted_rows(monkeypatch, "_p1_rows", "_p1_snr_rows", "_output_rows")
    monkeypatch.setattr(optimize, "output_distribution", None)
    sweeps.figure2()
    assert [name for name, _ in calls] == (["_p1_snr_rows"] + ["_p1_rows"] * 27
                                           + ["_output_rows"])
    assert calls[0][1] == 11 * 96 and calls[-1][1] == 22  # 11 best points, 11 midpoints
    calls.clear()
    sweeps.figure5()
    assert [name for name, _ in calls] == (["_p1_snr_rows"] * 31 + ["_p1_rows"] * 27
                                           + ["_output_rows"])
    assert calls[0][1] == 12 * 96  # one coarse grid per template, shared by 6 targets


def test_shared_rows_are_evaluated_once(monkeypatch):
    # The 6 SNR targets of each figure5 template share its coarse-grid rows,
    # and figure2's searches run twice over, so the first round's 9024 rows
    # hold 2208 distinct ones.  Every result equals that of its case
    # searched alone, duplicates included.
    fig2, fig5 = _fig2_and_fig5_cases()
    cases = [(cfg, None) for cfg in fig2 + fig2] + fig5
    calls = _counted_rows(monkeypatch, "_p1_snr_rows")
    together = optimize.search(cases, *_RANGE_ARGS)
    assert calls[0][1] == 2208
    _same_results(together, [optimize.search([case], *_RANGE_ARGS)[0] for case in cases])
    # Duplicated constrained cases, whose sub-intervals are evaluated once
    # per case, with unconstrained ones of the same templates between them.
    mixed = fig5[:8] + [(cfg, None) for cfg, _ in fig5[:8]] + fig5[:8] + fig5[2:5]
    together = optimize.search(mixed, *_RANGE_ARGS)
    _same_results(together, [optimize.search([case], *_RANGE_ARGS)[0] for case in mixed])


def test_no_cases_give_no_results_and_no_core_calls(monkeypatch):
    calls = _counted_rows(monkeypatch, "_p1_rows", "_p1_snr_rows", "_output_rows")
    assert optimize.search([]) == []
    assert calls == []


def test_rows_are_shared_only_by_equal_parameters(monkeypatch):
    calls = _counted_rows(monkeypatch, "_p1_snr_rows")
    grid = np.geomspace(1e-3, 1.5, 300)
    cfg = SourceConfig(m=2, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
    same = SourceConfig(m=2, mu=0.3, e_h=0.85, e_s=0.9, e_sw_db=0.5)  # mu is ignored
    other = cfg.replace(r_dark=5e6)
    cfgs = [cfg, other, same, other.replace(m=3), cfg]
    p1, ratio = optimize._coarse_round(optimize._parameters(cfgs), grid)
    assert [rows for _, rows in calls] == [3 * 300]  # cfg, other, other with m = 3
    for c, got_p1, got_ratio in zip(cfgs, p1, ratio):
        want_p1, want_ratio = p1_snr_curve(c, grid)
        assert got_p1.tobytes() == want_p1.tobytes()
        assert got_ratio.tobytes() == want_ratio.tobytes()


def test_shared_rows_name_the_unshared_worst_mu():
    # TruncationError names the pump rate that one round over every case's
    # whole grid, unshared, names.
    _, fig5 = _fig2_and_fig5_cases()
    mu_range = (1e-4, 40.0)
    grid = np.geomspace(*mu_range, optimize.COARSE_POINTS)
    params = optimize._parameters([cfg for cfg, _ in fig5])
    with pytest.raises(TruncationError) as unshared:
        losses._p1_snr_rows(np.tile(grid, len(fig5)), *np.repeat(params, grid.size, axis=1))
    with pytest.raises(TruncationError) as shared:
        optimize.search(fig5, mu_range)
    assert str(shared.value) == str(unshared.value)


@pytest.mark.parametrize("seed", [9, 10])
def test_stacked_grids_equal_one_grid_per_interval(monkeypatch, seed):
    # The sub-interval grids of a round come from one np.geomspace call with
    # axis=1; each row equals the interval's own np.geomspace, bit for bit,
    # on figure5's bisection ends and on random brackets.
    ends = []
    bisect = optimize._bisect

    def recorded(*args):
        bounds = bisect(*args)
        ends.extend(zip(bounds[::2].tolist(), bounds[1::2].tolist()))
        return bounds

    monkeypatch.setattr(optimize, "_bisect", recorded)
    sweeps.figure5()
    ends = [(a, b) for a, b in ends if b > a]
    assert len(ends) == 72
    rng = np.random.default_rng(seed)
    lo = np.exp(rng.uniform(np.log(1e-6), np.log(5.0), 500))
    width = np.exp(rng.uniform(np.log(1e-10), np.log(10.0), lo.size))
    ends += list(zip(lo.tolist(), (lo + lo * width).tolist()))
    a, b = np.array(ends).T
    stacked = np.geomspace(a, b, optimize.COARSE_POINTS, axis=1)
    for row, (lo, hi) in zip(stacked, ends):
        assert row.tobytes() == np.geomspace(lo, hi, optimize.COARSE_POINTS).tobytes()


def test_local_maxima_are_the_points_at_least_as_high_as_each_neighbour():
    # Inside each row, in row-major order; the ends are never candidates.
    rng = np.random.default_rng(4)
    for size in [0, 1, 2, 3, 5, 8, 96] * 40:
        values = rng.integers(0, 4, (3, size)).astype(float)  # plateaus
        values[rng.random(values.shape) < 0.1] = np.nan
        values[rng.random(values.shape) < 0.1] = -np.inf
        want = [(r, i) for r in range(3) for i in range(1, size - 1)
                if values[r, i] >= values[r, i - 1] and values[r, i] >= values[r, i + 1]]
        rows, index = optimize._interior_maxima(values)
        assert list(zip(rows.tolist(), index.tolist())) == want
