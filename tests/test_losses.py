import ast
import decimal
import inspect
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as sps
from scipy.optimize import brentq

from photonmux import (
    McConfig,
    PhotonDistribution,
    SourceConfig,
    TruncationError,
    ideal_distribution,
    max_p1_with_snr_floor,
    optimize_mu,
    output_distribution,
    snr,
)
from photonmux import losses, sweeps, validate
from photonmux.losses import p1_snr_curve
from photonmux.optimize import search
from photonmux.montecarlo._tables import _binomial_matrix as binomial_matrix
from photonmux.stats import (
    N_MAX_LIMIT,
    TAIL_LIMIT,
    poisson_rows,
    poisson_vector,
    snr_rows,
)
from photonmux.validate import (
    DARK_MIXTURE_POINTS,
    TRANSMISSION_FIELDS,
    check_event_reference,
    check_switch_loss_trend,
    check_transmission_trend,
)


def _herald_rows(mu, e_h, windows, p_dark, n_max):
    """The truncated-sum chain before signal loss, kept as an independent
    reference for the closed form: Poisson rows times the herald weights."""
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
            f"at mu={float(mu[worst])!r}; lower mu or increase n_max"
        )
    return rows, tail


def _truncated_sum_chain(cfg, n_max=30):
    """Reference output pmf: the pre-loss rows through the binomial loss matrix."""
    rows, _ = _herald_rows(np.array([cfg.mu]), cfg.e_h, cfg.n_windows, cfg.p_dark, n_max)
    return rows[0] @ binomial_matrix(n_max, cfg.e_s_total)


def _config_with_p_dark(m, mu, e_h, transmission, p_dark):
    """e_s carries the whole signal transmission: no switch loss."""
    r_dark = -math.log1p(-p_dark) / 2e-9
    return SourceConfig(m=m, mu=mu, e_h=e_h, e_s=transmission, r_dark=r_dark)


class TestHeraldedDistribution:
    @pytest.mark.parametrize("m,mu", [(0, 0.3), (2, 0.1), (4, 0.05), (6, 0.8)])
    def test_perfect_heralding_equals_ideal(self, m, mu):
        cfg = SourceConfig(m=m, mu=mu)
        got = output_distribution(cfg)
        want = ideal_distribution(cfg)
        assert np.abs(got.probs - want.probs).max() < 1e-12

    @pytest.mark.parametrize("e_h", [0.05, 0.3, 0.85, 1.0])
    def test_single_window_telescopes_to_poisson(self, e_h):
        # With one window the click and no-click branches recombine exactly.
        for mu in (0.01, 0.1, 1.3):
            cfg = SourceConfig(m=0, mu=mu, e_h=e_h)
            got = output_distribution(cfg)
            assert np.abs(got.probs - poisson_vector(mu, got.n_max)).max() < 1e-12

    def test_no_herald_degenerate(self):
        cfg = SourceConfig(m=3, mu=0.2, e_h=0.0)
        dist = output_distribution(cfg)
        assert np.abs(dist.probs - poisson_vector(0.2, dist.n_max)).max() < 1e-15

    def test_shorter_interval_lowers_herald_weight(self):
        cfg = SourceConfig(m=4, mu=0.1, e_h=0.85)
        p0 = [output_distribution(cfg.replace(m=m)).p(0) for m in (0, 2, 4)]
        assert p0[0] > p0[1] > p0[2]


class TestDarkCounts:
    def test_single_window_stays_poisson(self):
        cfg = SourceConfig(m=0, mu=0.1, e_h=0.85, r_dark=5e6)
        got = output_distribution(cfg)
        assert np.abs(got.probs - poisson_vector(0.1, got.n_max)).max() < 1e-12

    @pytest.mark.parametrize("m,mu,p_dark", DARK_MIXTURE_POINTS)
    def test_matches_literal_mixture(self, m, mu, p_dark):
        cfg = validate._dark_mixture_config(m, mu, p_dark)
        got = output_distribution(cfg)
        assert np.abs(got.probs - validate._event_reference(cfg, got.n_max)).max() < 1e-12

    def test_dark_counts_shift_weight_to_vacuum(self):
        base = SourceConfig(m=4, mu=0.1, e_h=0.85)
        dark = base.replace(r_dark=5e6)
        assert output_distribution(dark).p(0) > output_distribution(base).p(0)


# Model errors the event-level reference must expose, each applied to the
# config before the chain sees it.
_CHAIN_ERRORS = {
    "e_h -0.3%": lambda cfg: cfg.replace(e_h=cfg.e_h * 0.997),
    "mu +0.3%": lambda cfg: cfg.replace(mu=cfg.mu * 1.003),
    "e_s -0.3%": lambda cfg: cfg.replace(e_s=cfg.e_s * 0.997),
    "dark counts ignored": lambda cfg: cfg.replace(r_dark=0.0),
    "one extra switch passage": lambda cfg: cfg.replace(e_s=cfg.e_s * 10 ** (-cfg.e_sw_db / 10)),
}


class TestEventReference:
    def test_chain_matches_event_reference(self):
        check = check_event_reference()
        assert check.passed, check.detail

    @pytest.mark.parametrize("error", _CHAIN_ERRORS.values(), ids=_CHAIN_ERRORS)
    def test_check_fails_a_chain_error(self, monkeypatch, error):
        monkeypatch.setattr(validate, "output_distribution",
                            lambda cfg: output_distribution(error(cfg)))
        check = check_event_reference()
        assert not check.passed, check.detail

    def test_reference_reads_none_of_the_chains_names(self):
        # Read through the chain's helpers or derived fields, the reference
        # would share any error in them.
        tree = ast.parse(inspect.getsource(validate._event_reference))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert {"math", "mu", "e_h", "e_s", "e_sw_db", "m", "r_dark", "delta_t0_ns"} <= read
        assert not read & {"e_s_total", "p_dark", "n_windows", "mu_total", "stats", "losses",
                           "np", "output_distribution", "poisson_vector", "signal_transmission"}


def _thin_by_convolution(probs: np.ndarray, p: float) -> np.ndarray:
    """Brute-force binomial loss: sum over survivor subsets per input count."""
    out = np.zeros_like(probs)
    for n, weight in enumerate(probs):
        for k in range(n + 1):
            out[k] += weight * math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return out


def _apply_signal_loss(dist: PhotonDistribution, transmission: float) -> PhotonDistribution:
    """Binomial-thinning reference for the chain's signal loss: each of the
    n photons survives independently with probability ``transmission``, so
    the k-photon output weight marginalizes the binomial factor over all
    input numbers n >= k.  The tail is carried through unchanged, an upper
    bound on the residual error."""
    if not (0.0 <= transmission <= 1.0):
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    probs = dist.probs @ binomial_matrix(dist.n_max, transmission)
    return PhotonDistribution(probs, dist.n_max, dist.tail_mass, dist.meta)


class TestSignalLoss:
    def test_identity_at_unit_transmission(self):
        dist = ideal_distribution(SourceConfig(m=2, mu=0.3))
        got = _apply_signal_loss(dist, 1.0)
        assert np.array_equal(got.probs, dist.probs)

    def test_single_photon_splits_binomially(self):
        probs = np.zeros(3)
        probs[1] = 1.0
        got = _apply_signal_loss(PhotonDistribution(probs, 2), 0.37)
        assert got.p(0) == pytest.approx(0.63, rel=1e-15)
        assert got.p(1) == pytest.approx(0.37, rel=1e-15)

    @pytest.mark.parametrize("mu,p", [(0.1, 0.9), (0.5, 0.3), (1.7, 0.55)])
    def test_poisson_thinning_identity(self, mu, p):
        dist = PhotonDistribution(poisson_vector(mu, 40), 40,
                                  tail_mass=float(sps.poisson.sf(40, mu)))
        got = _apply_signal_loss(dist, p)
        assert np.abs(got.probs - poisson_vector(mu * p, 40)).max() < 1e-12

    def test_matches_brute_force_convolution(self):
        dist = output_distribution(SourceConfig(m=2, mu=0.4, e_h=0.7, e_s=1.0))
        got = _apply_signal_loss(dist, 0.41)
        want = _thin_by_convolution(np.array(dist.probs), 0.41)
        assert np.abs(got.probs - want).max() < 1e-14

    def test_normalization_preserved(self):
        dist = ideal_distribution(SourceConfig(m=4, mu=0.8))
        got = _apply_signal_loss(dist, 0.2)
        assert abs(float(got.probs.sum()) + got.tail_mass - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_bad_transmission(self, bad):
        dist = ideal_distribution(SourceConfig(m=0, mu=0.1))
        with pytest.raises(ValueError):
            _apply_signal_loss(dist, bad)


class TestTotalSignalTransmission:
    def test_lossless(self):
        assert SourceConfig(m=7, mu=0.1).e_s_total == 1.0

    def test_half_db_single_window(self):
        cfg = SourceConfig(m=0, mu=0.1, e_s=0.9, e_sw_db=0.5)
        # 0.9 * 10^-0.05, arbitrary-precision reference
        assert cfg.e_s_total == pytest.approx(0.802125844320371, rel=1e-13)

    def test_one_db_four_stages(self):
        cfg = SourceConfig(m=4, mu=0.1, e_s=0.9, e_sw_db=1.0)
        # 0.9 * 10^-0.5
        assert cfg.e_s_total == pytest.approx(0.284604989415154, rel=1e-13)

    def test_switch_count_is_stages_plus_one(self):
        for m in range(0, 8):
            cfg = SourceConfig(m=m, mu=0.1, e_s=0.7, e_sw_db=0.3)
            assert cfg.e_s_total == pytest.approx(
                0.7 * (10 ** -0.03) ** (m + 1), rel=1e-13
            )


class TestOutputDistribution:
    def test_meta_carries_config(self):
        cfg = SourceConfig(m=1, mu=0.2, e_h=0.9)
        assert output_distribution(cfg).meta["config"] == cfg

    def test_p1_non_increasing_in_switch_loss(self):
        check = check_switch_loss_trend()
        assert check.passed, check.detail

    @pytest.mark.parametrize("field", TRANSMISSION_FIELDS)
    def test_p1_non_decreasing_in_transmissions_below_optimum(self, monkeypatch, field):
        # One case per field: the check reads the fields at call time.
        monkeypatch.setattr(validate, "TRANSMISSION_FIELDS", (field,))
        check = check_transmission_trend()
        assert check.passed, check.detail

    def test_closed_form_matches_truncated_sum_chain(self):
        for point in itertools.product((0, 1, 4, 10, 20, 30), (0.0, 1e-6, 0.85, 1.0),
                                       (0.0, 1e-3, 1.0 - 1e-9), (0.0, 0.5, 1.0),
                                       (0.0, 1e-4, 0.1, 2.0)):
            m, e_h, p_dark, transmission, mu = point
            cfg = _config_with_p_dark(m, mu, e_h, transmission, p_dark)
            err = np.abs(output_distribution(cfg).probs - _truncated_sum_chain(cfg)).max()
            assert err < 1e-13, f"(m, e_h, P_dark, t, mu) = {point}: {err:.3e}"

    @pytest.mark.parametrize("mu", [1e-4, 1e-3, 1e-2])
    def test_single_window_output_is_poisson_with_exact_snr(self, mu):
        cfg = SourceConfig(m=0, mu=mu, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        lam = mu * cfg.e_s_total
        dist = output_distribution(cfg)
        assert np.array_equal(dist.probs, poisson_vector(lam, dist.n_max))
        # Poisson SNR = lam e^-lam / (1 - e^-lam - lam e^-lam) = 1 / sum_{j>=1} lam^j / (j+1)!
        series = sum(lam ** j / math.factorial(j + 1) for j in range(12, 0, -1))
        assert snr(dist) == pytest.approx(1.0 / series, rel=1e-13)


class TestVectorizedCurve:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(444)
        for m, r_dark in ((4, 0.0), (4, 2e6), (20, 2e6)):
            cfg = SourceConfig(m=m, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.7, r_dark=r_dark)
            grid = rng.uniform(1e-4, 2.0, size=40)
            p1, ratio = p1_snr_curve(cfg, grid)
            for i, mu in enumerate(grid):
                dist = output_distribution(cfg.replace(mu=float(mu)))
                assert p1[i] == pytest.approx(dist.p(1), rel=1e-12)
                assert ratio[i] == pytest.approx(snr(dist), rel=1e-12)

    def test_handles_zero_pump(self):
        cfg = SourceConfig(m=2, mu=0.1, e_h=0.85)
        p1, ratio = p1_snr_curve(cfg, [0.0, 0.1])
        assert p1[0] == 0.0
        assert math.isinf(ratio[0])

    def test_reads_p1_as_zero_beyond_n_max(self):
        # At n_max = 0 the vacuum from output_distribution has P1 = 0 and SNR
        # +inf, as the vacuum row of the curve reads; a pumped row fails the
        # guard.
        cfg = SourceConfig(m=2, mu=0.0, e_h=0.85)
        p1, ratio = p1_snr_curve(cfg, [0.0])
        vacuum = output_distribution(cfg, n_max=0)
        assert (float(p1[0]), float(ratio[0])) == (vacuum.p(1), snr(vacuum)) == (0.0, math.inf)
        with pytest.raises(TruncationError, match="n_max=0 .* at mu=0.1;"):
            output_distribution(cfg.replace(mu=0.1), n_max=0)
        # The other readers of P1 rows, on a chain that transmits nothing:
        # the optimizer's last round and the sweep records.
        dark = SourceConfig(m=2, mu=0.1, e_s=0.0)
        assert optimize_mu(dark).p1_max == 0.0
        assert max_p1_with_snr_floor(dark, 5.0).p1_max == 0.0
        assert sweeps.record_for(dark).p1 == 0.0
        assert "p1" in sweeps.sweep_axis(dark, "mu", [0.1, 0.2]).to_csv()

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_rejects_grid_point_outside_the_pump_range(self, bad):
        cfg = SourceConfig(m=2, mu=0.1, e_h=0.85)
        with pytest.raises(ValueError, match=r"^mu grid must be finite and >= 0$"):
            p1_snr_curve(cfg, [0.1, bad])

    @pytest.mark.parametrize("grid", [0.1, [[0.1, 0.2]], np.zeros((0, 2)), [[-1.0]]],
                             ids=["scalar", "row", "empty-2d", "bad-2d"])
    def test_rejects_a_grid_that_is_not_one_dimensional(self, grid):
        # Before any other check or computation.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^mu grid must be one-dimensional$"):
                p1_snr_curve(SourceConfig(m=2, mu=0.1, e_h=0.85), grid)

    def test_rejects_truncated_grid_point(self):
        # At mu = 10 the tail beyond n_max = 30 is 8e-8, like the scalar path.
        cfg = SourceConfig(m=2, mu=0.1, e_h=0.85)
        with pytest.raises(TruncationError, match="at mu=10.0"):
            p1_snr_curve(cfg, [0.1, 10.0, 1.0])
        with pytest.raises(TruncationError):
            output_distribution(cfg.replace(mu=10.0))


def _h_reference(x: float) -> float:
    """expm1(x) - x from its Taylor series, summed to 50 digits."""
    with decimal.localcontext(prec=50):
        x = decimal.Decimal(x)
        term, total, k = x, decimal.Decimal(0), 1
        while True:
            k += 1
            term = term * x / k
            total += term
            if term < total * decimal.Decimal("1e-50"):
                return float(total)


def _params(cfg):
    return cfg.e_s_total, cfg.e_h, float(cfg.n_windows), cfg.p_dark


class TestClosedForm:
    """P1 and the SNR of the optimizer's rounds and p1_snr_curve, in closed
    form, against the output rows."""

    def test_matches_the_output_rows(self):
        # P1 has the row's bits; the SNR is +inf where the row's is, and
        # otherwise within the bound that p1_snr_curve states.
        rng = np.random.default_rng(2032)
        edge = losses._CLOSED_FORM_MU
        below = [np.nextafter(edge, 0.0), edge * (1.0 - 1e-9), edge * (1.0 - 1e-3), edge]
        for _ in range(300):
            cfg = SourceConfig(m=int(rng.integers(0, 11)), mu=0.1,
                               e_h=float(rng.choice([0.0, 1.0, rng.random()])),
                               e_s=float(rng.random()), e_sw_db=float(rng.uniform(0.0, 3.0)),
                               r_dark=float(rng.uniform(0.0, 5e7)))
            mu = np.concatenate(([0.0, 1e-8], below,
                                 np.exp(rng.uniform(math.log(1e-6), math.log(edge), 20))))
            p1, ratio = losses._p1_snr_rows(mu, *_params(cfg))
            probs, tail = losses._output_rows(mu, *_params(cfg), 30)
            want = snr_rows(probs, tail)[1]
            assert p1.tobytes() == probs[:, 1].tobytes()
            assert losses._p1_rows(mu, *_params(cfg)).tobytes() == p1.tobytes()
            assert (np.isinf(ratio) == np.isinf(want)).all()
            finite = np.isfinite(want)
            assert (np.abs(ratio[finite] / want[finite] - 1.0) < 1e-13).all()

    def test_h_matches_a_50_digit_series(self):
        switch = losses._H_SERIES_BELOW
        x = np.concatenate((np.geomspace(1e-12, 10.0, 500),
                            np.random.default_rng(7).uniform(switch - 0.1, switch + 0.1, 200),
                            [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0)]))
        got = losses._h(x)
        for xi, hi in zip(x.tolist(), got.tolist()):
            want = _h_reference(xi)
            assert abs(hi - want) <= 4 * np.spacing(want), xi
        # Each point's value does not depend on the points beside it.
        for part in (x < switch, x >= switch, x > 1e-3):
            assert losses._h(x[part]).tobytes() == got[part].tobytes()

    def test_each_point_has_the_bits_of_its_one_point_call(self):
        # Rows below and above the bound, and zero and faint pumps, in one
        # grid.  The rows left on the row path give the row's own SNR bits.
        cfg = SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6)
        edge = losses._CLOSED_FORM_MU
        rng = np.random.default_rng(11)
        mu = rng.permutation(np.concatenate((
            rng.uniform(0.0, edge, 300), rng.uniform(edge, 2 * edge, 300),
            [0.0, 1e-110, 1e-95, edge, np.nextafter(edge, np.inf)])))
        p1, ratio = p1_snr_curve(cfg, mu)
        assert losses._p1_rows(mu, *_params(cfg)).tobytes() == p1.tobytes()
        on_rows = (mu > edge) | (mu * cfg.e_s_total < losses._CLOSED_FORM_LAM)
        assert 290 < on_rows.sum() < 310
        for i, x in enumerate(mu.tolist()):
            one_p1, one_ratio = p1_snr_curve(cfg, [x])
            assert (one_p1.tobytes(), one_ratio.tobytes()) == (p1[i].tobytes(),
                                                               ratio[i].tobytes())
            if on_rows[i]:
                dist = output_distribution(cfg.replace(mu=x))
                assert np.float64(snr(dist)).tobytes() == ratio[i].tobytes()


def test_negative_n_max_rejected():
    with pytest.raises(ValueError, match=rf"^n_max must be an integer in \[0, {N_MAX_LIMIT}\], "
                                         r"got -1$"):
        output_distribution(SourceConfig(m=2, mu=0.1, e_h=0.85), n_max=-1)


_CFG = SourceConfig(m=2, mu=0.1, e_h=0.85)


_N_MAX_CALLS = {
    "output_distribution": (lambda n: output_distribution(_CFG, n), 10**6),
    "ideal_distribution": (lambda n: ideal_distribution(_CFG.replace(mu=0.0), n), 10**6),
    "poisson_vector": (lambda n: poisson_vector(0.1, n), 10**6),
    # One Poisson probability P(n), read as the last entry of the vector.
    "poisson_pmf": (lambda n: poisson_vector(0.1, n)[-1], 10**6),
    "PhotonDistribution": (lambda n: PhotonDistribution([1.0], n), 10**6),
}


@pytest.mark.parametrize("call,bound", _N_MAX_CALLS.values(), ids=_N_MAX_CALLS)
def test_n_max_above_the_limit_is_rejected_before_allocating(call, bound):
    # Each bound would take tens of MB if the call went ahead.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^n_max must be an integer in \[\d, {N_MAX_LIMIT}\], "
                                             rf"got {bound}$"):
            call(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("bad", [True, 2.5, math.nan, math.inf, "30", None],
                         ids=["bool", "fraction", "nan", "inf", "string", "none"])
@pytest.mark.parametrize("call", [call for call, _ in _N_MAX_CALLS.values()], ids=_N_MAX_CALLS)
def test_n_max_must_be_an_integer(call, bad):
    with pytest.raises(ValueError, match=rf"^n_max must be an integer in \[\d, {N_MAX_LIMIT}\], "
                                         rf"got {re.escape(repr(bad))}$"):
        call(bad)


# Every other integer argument, with its name and range, through the one check
# that n_max passes.
_INTEGER_ARGUMENTS = {
    "m": (lambda v: SourceConfig(m=v, mu=0.1), 0, 1023),
    "trials": (lambda v: McConfig(trials=v), 1, 2**40),
    "seed": (lambda v: McConfig(trials=1, seed=v), 0, 2**64 - 1),
    "shards": (lambda v: McConfig(trials=1, shards=v), 1, 2**40),
}


@pytest.mark.parametrize("bad", [True, 2.5, math.nan, math.inf, "3"],
                         ids=["bool", "fraction", "nan", "inf", "string"])
@pytest.mark.parametrize("name", _INTEGER_ARGUMENTS)
def test_integer_argument_must_be_an_integer(name, bad):
    call, low, high = _INTEGER_ARGUMENTS[name]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[{low}, {high}\], "
                                         rf"got {re.escape(repr(bad))}$"):
        call(bad)
    for outside in (low - 1, high + 1):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer .* got {outside}$"):
            call(outside)


@pytest.mark.parametrize("integral", [2.0, np.int64(2)], ids=["float", "int64"])
def test_integral_argument_is_accepted_as_an_int(integral):
    mc = McConfig(trials=integral, seed=integral, shards=integral)
    values = [SourceConfig(m=integral, mu=0.1).m, mc.trials, mc.seed, mc.shards]
    assert all(type(value) is int and value == 2 for value in values)


@pytest.mark.parametrize("integral", [30.0, np.int64(30), np.float64(30.0)])
def test_integral_n_max_is_accepted_as_an_int(integral):
    assert poisson_vector(0.1, integral).tobytes() == poisson_vector(0.1, 30).tobytes()
    for dist in (output_distribution(_CFG, integral), ideal_distribution(_CFG, integral)):
        assert type(dist.n_max) is int and dist.n_max == 30
    assert output_distribution(_CFG, integral).probs.tobytes() == \
        output_distribution(_CFG).probs.tobytes()


def test_n_max_at_the_limit_is_accepted():
    assert poisson_vector(0.1, N_MAX_LIMIT).size == N_MAX_LIMIT + 1
    assert poisson_vector(0.1, N_MAX_LIMIT)[-1] == 0.0
    dist = output_distribution(_CFG, N_MAX_LIMIT)
    assert dist.n_max == N_MAX_LIMIT
    assert dist.probs[:31].tobytes() == output_distribution(_CFG).probs.tobytes()


class TestTruncationGuard:
    def test_single_window_tail_is_poisson_sf(self):
        cfg = SourceConfig(m=0, mu=0.1, e_h=0.85, e_s=0.5)
        for mu in (0.5, 2.0, 8.0, 16.0):
            dist = output_distribution(cfg.replace(mu=mu))
            want = sps.poisson.sf(dist.n_max, mu * cfg.e_s_total)
            assert dist.tail_mass == pytest.approx(want, rel=1e-10)

    def test_guard_measures_the_output_tail(self):
        # Behind a transmission of 0.5 the output is Poisson(mu / 2): the
        # guard sits where its own tail beyond n_max = 30 reaches 1e-9, near
        # mu = 16.4, although the pre-loss tail there is far larger.
        cfg = SourceConfig(m=0, mu=0.1, e_h=0.85, e_s=0.5)

        def mu_at(sf):
            return brentq(lambda mu: sps.poisson.sf(30, mu * cfg.e_s_total) - sf,
                          1.0, 40.0, xtol=1e-14, rtol=1e-15)

        below = output_distribution(cfg.replace(mu=mu_at(0.999 * TAIL_LIMIT)))
        assert below.tail_mass < TAIL_LIMIT
        with pytest.raises(TruncationError, match="at mu="):
            output_distribution(cfg.replace(mu=mu_at(1.001 * TAIL_LIMIT)))

    @pytest.mark.parametrize("mu,e_h", [(50.0, 1.0), (800.0, 0.9999), (1e5, 0.5)])
    def test_huge_pump_is_rejected(self, mu, e_h):
        # Past mu t ~ 709 the closed form overflows to NaN; the guard must
        # still reject the row rather than pass it on.
        with pytest.raises(TruncationError):
            output_distribution(SourceConfig(m=3, mu=mu, e_h=e_h))
        with pytest.raises(TruncationError):
            p1_snr_curve(SourceConfig(m=3, mu=0.1, e_h=e_h), [0.1, mu])

    @pytest.mark.parametrize("spikes,named", [
        # Two rows lose all their mass: the first of them is named.
        ({100: 12.0, 300: 20.0, 600: 200.0, 900: 300.0}, "200.0"),
        # A NaN row is named before any finite one, wherever it lies.
        ({100: 12.0, 300: 200.0, 800: 1e5, 950: 1e5 + 1.0}, "100000.0"),
    ], ids=["first-maximum", "first-nan"])
    def test_blocked_rows_name_the_worst_mu_of_the_whole_grid(self, spikes, named):
        # The truncating rows lie in different blocks of the blocked core;
        # every blocked path names the mu that one unblocked core call names.
        cfg = SourceConfig(m=3, mu=0.1, e_h=0.5)
        params = (cfg.e_s_total, cfg.e_h, cfg.n_windows, cfg.p_dark, 30)
        mu = np.random.default_rng(5).uniform(0.01, 2.0, 1000)
        for i, value in spikes.items():
            mu[i] = value
        assert len({i // losses._BLOCK_ROWS for i in spikes}) >= 3
        with pytest.raises(TruncationError) as unblocked:
            losses._check_truncation(mu, losses._chain_rows(mu, *params)[2], 30)
        for blocked in (lambda: losses._output_rows(mu, *params),
                        lambda: p1_snr_curve(cfg, mu),
                        lambda: sweeps.sweep_axis(cfg, "mu", mu)):
            with pytest.raises(TruncationError) as got:
                blocked()
            assert str(got.value) == str(unblocked.value)
        assert f"at mu={named};" in str(unblocked.value)

    def test_a_truncating_row_among_closed_form_rows_is_named(self):
        # Rows above the closed form's bound, some truncating, among rows
        # below it: every path names the mu one unblocked core call names.
        cfg = SourceConfig(m=3, mu=0.1, e_h=0.5)
        mu = np.array([0.1, 3.9, 6.0, 12.0, 0.0, 2.0, 25.0, 4.0, 9.0, 25.0, 1.0])
        with pytest.raises(TruncationError) as unblocked:
            losses._check_truncation(mu, losses._chain_rows(mu, *_params(cfg), 30)[2], 30)
        assert "at mu=25.0;" in str(unblocked.value)
        for call in (lambda: p1_snr_curve(cfg, mu),
                     lambda: losses._p1_rows(mu, *_params(cfg))):
            with pytest.raises(TruncationError) as got:
                call()
            assert str(got.value) == str(unblocked.value)

    def test_figure_searches_raise_on_truncation(self):
        # The searches of figure2 and figure5, over a range they outgrow.
        with pytest.raises(TruncationError):
            search([(SourceConfig(m=m, mu=1e-4), None) for m in (0, 1)],
                   mu_range=(1e-4, 40.0))
        with pytest.raises(TruncationError):
            search(
                [(SourceConfig(m=m, mu=1e-4, e_h=0.85, e_s=0.9, e_sw_db=0.5), 5.0)
                 for m in (1, 2)], mu_range=(1e-4, 40.0))
