import math
import warnings

import numpy as np
import pytest

from photonmux import SourceConfig, max_p1_with_snr_floor, optimize, optimize_mu, output_distribution
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


# -- the batched tree search against the one-step loops ----------------------


def _one_step_golden(f, lo, hi, tol):
    """Golden-section search with one evaluation per step; f maps a list of
    points to their values, as for optimize._golden_max."""
    def value(x):
        return float(f([x])[0])

    a, b = lo, hi
    c = b - optimize._GOLDEN * (b - a)
    d = a + optimize._GOLDEN * (b - a)
    fc, fd = value(c), value(d)
    evals = 2
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - optimize._GOLDEN * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + optimize._GOLDEN * (b - a)
            fd = value(d)
        evals += 1
    x = 0.5 * (a + b)
    return x, value(x), evals + 1


def _one_step_bisection(cfg, feasible, infeasible, target, n_max, tol=1e-10):
    """SNR-boundary bisection with one loss-chain call per step."""
    ok, bad = feasible, infeasible
    while abs(bad - ok) > tol * max(1.0, ok, bad):
        mid = 0.5 * (ok + bad)
        if float(p1_snr_curve(cfg, [mid], n_max)[1][0]) >= target:
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curve_entries_equal_one_point_calls(seed):
    # The tree search relies on it: a point's P1 and SNR do not depend on
    # the batch it is evaluated in.
    rng = np.random.default_rng(100 + seed)
    for cfg in _random_configs(seed, 8):
        mu = rng.uniform(1e-4, 2.0, int(rng.integers(2, 80)))
        p1, ratio = p1_snr_curve(cfg, mu)
        for i, x in enumerate(mu):
            one_p1, one_ratio = p1_snr_curve(cfg, [x])
            assert one_p1[0].tobytes() == p1[i].tobytes()
            assert one_ratio[0].tobytes() == ratio[i].tobytes()


@pytest.mark.parametrize("seed", [4, 5])
def test_bisection_equals_one_step_loop(seed):
    grid = np.geomspace(1e-4, 2.0, 96)
    for cfg in _random_configs(seed, 6):
        _, ratio = p1_snr_curve(cfg, grid)
        for target in (5.0, 50.0, float(ratio[40])):
            crossing = np.flatnonzero(ratio < target)
            if crossing.size == 0 or crossing[0] == 0:
                continue
            i = int(crossing[0])
            ok, bad = float(grid[i - 1]), float(grid[i])
            for tol in (1e-10, 1e-4):
                want = _one_step_bisection(cfg, ok, bad, target, 30, tol)
                assert optimize._bisect_snr_boundary(cfg, ok, bad, target, 30, tol) == want
                # The ends in the other order: every test passes and the
                # bracket closes on the upper end.
                want = _one_step_bisection(cfg, bad, ok, 1.0 / target, 30, tol)
                assert optimize._bisect_snr_boundary(cfg, bad, ok, 1.0 / target, 30, tol) == want


@pytest.mark.parametrize("seed", [6, 7])
def test_golden_section_equals_one_step_loop(seed):
    for cfg in _random_configs(seed, 6):
        def p1(mu):
            return p1_snr_curve(cfg, mu)[0]

        for lo, hi, tol in ((0.05, 0.9, 1e-6), (0.3, 0.31, 1e-9), (1e-4, 2.0, 1e-3),
                            (0.2, 0.2 + 1e-7, 1e-6)):
            assert optimize._golden_max(p1, lo, hi, tol) == _one_step_golden(p1, lo, hi, tol)


def _fig2_and_fig5_results():
    results = [optimize_mu(SourceConfig.lossless(m=m, mu=1e-4)) for m in range(11)]
    for il in (0.5, 1.0):
        for m in range(6):
            cfg = SourceConfig(m=m, mu=1e-4, e_h=0.85, e_s=0.9, e_sw_db=il)
            results += [max_p1_with_snr_floor(cfg, target)
                        for target in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)]
    return [repr(result) for result in results]


def test_fig2_and_fig5_results_equal_one_step_searches(monkeypatch):
    # Every field, iterations included, as the one-step searches give it.
    batched = _fig2_and_fig5_results()
    monkeypatch.setattr(optimize, "_golden_max", _one_step_golden)
    monkeypatch.setattr(optimize, "_bisect_snr_boundary", _one_step_bisection)
    assert batched == _fig2_and_fig5_results()
