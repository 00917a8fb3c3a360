import math
import warnings

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
from photonmux.stats import snr


def test_ideal_single_window_peaks_at_unit_mu():
    # Calculus: P1 = mu e^-mu is maximal at mu = 1.
    result = optimize_mu(SourceConfig.lossless(m=0, mu=1e-3), mu_range=(1e-4, 2.0), tol=1e-8)
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
    result = optimize_mu(SourceConfig.lossless(m=0, mu=1e-3), mu_range=(0.1, 0.8))
    assert not result.converged
    assert result.boundary == "upper"
    assert result.mu_opt == pytest.approx(0.8, rel=1e-12)


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


def test_result_keeps_the_distribution_at_its_optimum():
    cfg = SourceConfig(m=3, mu=1e-3, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6)
    results = [optimize_mu(cfg), max_p1_with_snr_floor(cfg, 0.0),
               max_p1_with_snr_floor(cfg, 50.0)]
    assert results[2].constraint_active
    for result in results:
        want = output_distribution(cfg.replace(mu=result.mu_opt))
        got = result.distribution
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.tail_mass == want.tail_mass and got.meta["config"] == want.meta["config"]
        assert (result.p1_max, result.snr_at_opt) == (want.p(1), snr(want))


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
        assert result.distribution is None
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


# -- the lockstep tree searches against the one-step loops -------------------


def _run_alone(cfg, search, n_max=30):
    """Run one search (see optimize._drive), each batch it yields evaluated
    by its own p1_snr_curve call."""
    values = None
    try:
        while True:
            values = p1_snr_curve(cfg, search.send(values), n_max)
    except StopIteration as stop:
        return stop.value


def _one_step_golden(lo, hi, tol):
    """Golden-section search with one evaluation per step, as a search with
    the protocol of optimize._golden_max."""
    a, b = lo, hi
    c = b - optimize._GOLDEN * (b - a)
    d = a + optimize._GOLDEN * (b - a)
    fc = float((yield [c])[0][0])
    fd = float((yield [d])[0][0])
    evals = 2
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - optimize._GOLDEN * (b - a)
            fc = float((yield [c])[0][0])
        else:
            a, c, fc = c, d, fd
            d = a + optimize._GOLDEN * (b - a)
            fd = float((yield [d])[0][0])
        evals += 1
    x = 0.5 * (a + b)
    return x, float((yield [x])[0][0]), evals + 1


def _one_step_bisection(feasible, infeasible, target, tol=1e-10):
    """SNR-boundary bisection with one loss-chain evaluation per step, as a
    search with the protocol of optimize._bisect_snr_boundary."""
    ok, bad = feasible, infeasible
    while abs(bad - ok) > tol * max(1.0, ok, bad):
        mid = 0.5 * (ok + bad)
        if float((yield [mid])[1][0]) >= target:
            ok = mid
        else:
            bad = mid
    return ok


def _random_configs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield SourceConfig(m=int(rng.integers(0, 6)), mu=0.1, e_h=0.85, e_s=0.9,
                           e_sw_db=float(rng.choice([0.5, 1.0])),
                           r_dark=float(rng.choice([0.0, 5e6])))


def _echo(points):
    """A search that yields its points once and returns their values."""
    return (yield points)


def _same_bits(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curve_entries_equal_one_point_calls(seed):
    # The tree searches and the lockstep rounds rely on it: a point's P1 and
    # SNR do not depend on the batch, the block or the other configs it is
    # evaluated with.
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

    # One lockstep round over configs that mix m 0..5, e_h, switch loss and
    # dark counts, more rows than several blocks hold in all.
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
    rounds = optimize._drive([(cfg, _echo(mu)) for cfg, mu in cases], 30)
    for (cfg, mu), (p1, ratio) in zip(cases, rounds):
        curve_p1, curve_ratio = p1_snr_curve(cfg, mu)
        assert p1.tobytes() == curve_p1.tobytes() and ratio.tobytes() == curve_ratio.tobytes()
        for i in rng.choice(mu.size, min(mu.size, 5), replace=False):
            one_p1, one_ratio = p1_snr_curve(cfg, [mu[i]])
            assert one_p1[0].tobytes() == p1[i].tobytes()
            assert one_ratio[0].tobytes() == ratio[i].tobytes()
            dist = output_distribution(cfg.replace(mu=float(mu[i])))
            assert _same_bits(p1[i], dist.p(1)) and _same_bits(ratio[i], snr(dist))


@pytest.mark.parametrize("seed", [4, 5])
def test_bisection_equals_one_step_loop(seed):
    grid = np.geomspace(1e-4, 2.0, 96)
    cases, want = [], []
    for cfg in _random_configs(seed, 6):
        _, ratio = p1_snr_curve(cfg, grid)
        for target in (5.0, 50.0, float(ratio[40])):
            crossing = np.flatnonzero(ratio < target)
            if crossing.size == 0 or crossing[0] == 0:
                continue
            i = int(crossing[0])
            ok, bad = float(grid[i - 1]), float(grid[i])
            for tol in (1e-10, 1e-4):
                # The ends in the other order too: every test passes and the
                # bracket closes on the upper end.
                for args in ((ok, bad, target, tol), (bad, ok, 1.0 / target, tol)):
                    expected = _run_alone(cfg, _one_step_bisection(*args))
                    search = optimize._bisect_snr_boundary(*args)
                    assert optimize._drive([(cfg, search)], 30) == [expected]
                    cases.append((cfg, optimize._bisect_snr_boundary(*args)))
                    want.append(expected)
    # All of them in lockstep, too.
    assert optimize._drive(cases, 30) == want


@pytest.mark.parametrize("seed", [6, 7])
def test_golden_section_equals_one_step_loop(seed):
    cases, want = [], []
    for cfg in _random_configs(seed, 6):
        for lo, hi, tol in ((0.05, 0.9, 1e-6), (0.3, 0.31, 1e-9), (1e-4, 2.0, 1e-3),
                            (0.2, 0.2 + 1e-7, 1e-6)):
            expected = _run_alone(cfg, _one_step_golden(lo, hi, tol))
            assert optimize._drive([(cfg, optimize._golden_max(lo, hi, tol))], 30) == [expected]
            cases.append((cfg, optimize._golden_max(lo, hi, tol)))
            want.append(expected)
    assert optimize._drive(cases, 30) == want


def _fig2_and_fig5_cases():
    fig2 = [SourceConfig.lossless(m=m, mu=1e-4) for m in range(11)]
    fig5 = [(SourceConfig(m=m, mu=1e-4, e_h=0.85, e_s=0.9, e_sw_db=il), target)
            for il in (0.5, 1.0) for m in range(6)
            for target in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)]
    return fig2, fig5


def test_fig2_and_fig5_results_equal_one_step_searches(monkeypatch):
    # Every field, iterations included, as the one-step searches give it
    # run one at a time; here all 83 searches of both figures share rounds.
    fig2, fig5 = _fig2_and_fig5_cases()
    range_args = (optimize.DEFAULT_MU_RANGE, 1e-6, 96, 30)
    lockstep = optimize._drive(
        [(cfg, optimize._mu_search(cfg, *range_args)) for cfg in fig2]
        + [(cfg, optimize._snr_floor_search(cfg, target, *range_args)) for cfg, target in fig5],
        30)
    monkeypatch.setattr(optimize, "_golden_max", _one_step_golden)
    monkeypatch.setattr(optimize, "_bisect_snr_boundary", _one_step_bisection)
    one_step = ([optimize_mu(cfg) for cfg in fig2]
                + [max_p1_with_snr_floor(cfg, target) for cfg, target in fig5])
    assert [repr(result) for result in lockstep] == [repr(result) for result in one_step]


def test_figure_searches_share_core_rounds(monkeypatch):
    # One blocked core call per round for all of a figure's searches: the
    # 11 of figure2() and the 72 of figure5() made 86 and 681 loss-chain
    # calls one search after another.
    rows = []
    core = optimize._p1_snr_rows

    def counted(mu, *args):
        rows.append(mu.size)
        return core(mu, *args)

    monkeypatch.setattr(optimize, "_p1_snr_rows", counted)
    sweeps.figure2()
    assert len(rows) == 15
    rows.clear()
    sweeps.figure5()
    assert len(rows) == 31
