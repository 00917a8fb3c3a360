import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from photonmux import (
    PhotonDistribution,
    SourceConfig,
    TruncationError,
    ideal_distribution,
    mandel_q,
    snr,
)
from photonmux.montecarlo import build_tables
from photonmux.montecarlo._tables import _binomial_matrix as binomial_matrix
from photonmux.montecarlo._tables import _survival_cdf
from photonmux.stats import check_rows, mandel_q_rows, moment_rows, poisson_vector


class TestPoissonPmf:
    def test_empty_source_identity(self):
        assert poisson_vector(0.0, 0).tolist() == [1.0]
        assert poisson_vector(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_direct_substitution(self):
        assert poisson_vector(1.0, 1)[1] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_against_arbitrary_precision(self):
        # mpmath at 40 digits: e^-0.1 * 0.1^2 / 2!
        assert poisson_vector(0.1, 2)[2] == pytest.approx(0.0045241870901797978658, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-6, 0.05, 0.37, 1.0, 2.0, 17.5])
    def test_against_scipy(self, mu):
        n = np.arange(0, 50)
        ours = poisson_vector(mu, 49)
        assert np.allclose(ours, sps.poisson.pmf(n, mu), rtol=1e-12, atol=1e-300)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_vector(-0.5, 1)
        with pytest.raises(ValueError):
            poisson_vector(0.5, -1)
        with pytest.raises(ValueError):
            poisson_vector(math.inf, 1)
        with pytest.raises(ValueError, match=r"^mu must be finite and >= 0, got True$"):
            poisson_vector(True, 3)

    def test_vector_matches_scalar(self):
        # Each entry against the closed form e^-mu mu^k / k!, one k at a time.
        vec = poisson_vector(0.37, 20)
        scalar = [math.exp(-0.37) * 0.37**k / math.factorial(k) for k in range(21)]
        assert np.allclose(vec, scalar, rtol=1e-14)


class TestBinomialMatrix:
    # Within about 1e-13 of p = 1 the zeroed k > n entries used to overflow
    # exp first.
    @pytest.mark.parametrize("n_max", [30, 128])
    @pytest.mark.parametrize("p", [1 - 1e-13, 1 - 1e-15])
    def test_no_overflow_near_one(self, n_max, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = binomial_matrix(n_max, p)
        assert np.isfinite(matrix).all()
        assert not np.triu(matrix, 1).any()
        assert np.allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert matrix[n_max, n_max] == pytest.approx(p**n_max, rel=1e-12)

    def test_sampling_tables_near_unit_transmission(self):
        cfg = SourceConfig(m=2, mu=0.1, e_s=1 - 1e-14)
        _survival_cdf.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = build_tables(cfg)
        assert np.isfinite(tables.survival_cdf).all()


class TestPhotonDistribution:
    def test_rejects_large_tail(self):
        # Poisson(5) loses far more than 1e-9 beyond n_max=4
        probs = poisson_vector(5.0, 4)
        with pytest.raises(TruncationError):
            PhotonDistribution(probs, 4, tail_mass=1.0 - probs.sum())

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError, match="normalize"):
            PhotonDistribution(np.array([0.5, 0.4]), 1, tail_mass=0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([1.2, -0.2]), 1)

    def test_rejects_nan_probabilities(self):
        # NaN fails every comparison, so each check is written in accepting
        # form: a NaN entry or tail mass fails it.
        for probs in ([math.nan, 1.0], [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
                PhotonDistribution(probs, 1)
        with pytest.raises(ValueError, match=r"^tail_mass must be >= 0, got nan$"):
            PhotonDistribution([0.5, 0.5], 1, math.nan)

    def test_rejects_a_two_dimensional_probs(self):
        with pytest.raises(ValueError, match=r"^probs must be one-dimensional, got shape \(2, 1\)$"):
            PhotonDistribution(np.full((2, 1), 0.5), 1)

    def test_rejects_a_zero_dimensional_probs(self):
        with pytest.raises(ValueError, match=r"^probs must be one-dimensional, got shape \(\)$"):
            PhotonDistribution(np.float64(1.0), 0)

    @pytest.mark.parametrize("tail", ["0", None, True, 1j, [0.0]],
                             ids=["str", "none", "bool", "complex", "list"])
    def test_rejects_a_tail_mass_that_is_not_a_real_number(self, tail):
        with pytest.raises(ValueError, match=r"^tail_mass must be a real number, got "):
            PhotonDistribution([0.5, 0.5], 1, tail)

    def test_stores_the_tail_mass_as_a_float(self):
        for tail in (0, np.float32(0.0), Fraction(0), np.float64(0.0), -1e-15):
            dist = PhotonDistribution([0.5, 0.5], 1, tail)
            assert type(dist.tail_mass) is float and dist.tail_mass == tail
            assert dist.p_ge(2) == dist.tail_mass
        dist = PhotonDistribution([0.5, 0.5 - 2**-40], 1, np.float64(2**-40))
        assert type(dist.tail_mass) is float and dist.p_ge(1) == 0.5

    def test_moments_and_tails(self):
        dist = PhotonDistribution(np.array([0.5, 0.3, 0.2]), 2)
        assert dist.mean() == pytest.approx(0.7)
        assert dist.variance() == pytest.approx(1.1 - 0.49)
        assert dist.p_ge(0) == 1.0
        assert dist.p_ge(2) == pytest.approx(0.2)
        assert dist.p(5) == 0.0

    def test_moments_share_one_evaluation(self):
        dist = ideal_distribution(SourceConfig(m=3, mu=0.4))
        n = np.arange(dist.n_max + 1)
        mean = float(n @ dist.probs)
        variance = float((n * n) @ dist.probs) - mean * mean
        got = tuple(float(part[0]) for part in moment_rows(dist.probs[None]))
        assert got == (dist.mean(), dist.variance()) == (mean, variance)
        assert mandel_q(dist) == (variance - mean) / mean
        # Bit for bit the products with the integer vectors, at any length
        # and for rows of a larger array, each row as it gives alone.
        rng = np.random.default_rng(8)
        for size in (1, 2, 3, 31, 62, 200):
            view = rng.dirichlet(np.ones(2 * size), 20)[:, :size]
            n = np.arange(size)
            for block in (view, np.vstack([view, rng.random(size) * 1e-7])):
                means, variances = moment_rows(block)
                for probs, mean, variance in zip(block, means, variances):
                    want = float(n @ probs)
                    assert (mean, variance) == (want, float((n * n) @ probs) - want * want)
                    alone = [part.tolist() for part in moment_rows(probs[None])]
                    assert alone == [[mean], [variance]]

    def test_config_must_be_a_source_config_or_none(self):
        probs, cfg = np.array([1.0, 0.0]), SourceConfig(m=1, mu=0.1)
        assert PhotonDistribution(probs, 1).config is None
        assert PhotonDistribution(probs, 1, 0.0, cfg).config is cfg
        for bad in ({"config": cfg}, cfg.as_dict(), "m=1"):
            with pytest.raises(ValueError, match="^config must be a SourceConfig or None"):
                PhotonDistribution(probs, 1, 0.0, bad)
        with pytest.raises(dataclasses.FrozenInstanceError):
            PhotonDistribution(probs, 1).config = cfg


class TestIdealDistribution:
    def test_single_stage_reduces_to_poisson(self):
        rng = np.random.default_rng(1234)
        for mu in rng.uniform(1e-6, 2.0, size=100):
            dist = ideal_distribution(SourceConfig(m=0, mu=float(mu)))
            assert np.abs(dist.probs - poisson_vector(float(mu), dist.n_max)).max() < 1e-12

    def test_zero_pump_gives_vacuum(self):
        dist = ideal_distribution(SourceConfig(m=5, mu=0.0))
        assert dist.p(0) == 1.0
        assert dist.probs[1:].sum() == 0.0

    def test_vacuum_weight_formula(self):
        dist = ideal_distribution(SourceConfig(m=3, mu=0.05))
        assert dist.p(0) == pytest.approx(math.exp(-0.4), rel=1e-14)

    def test_vacuum_weight_strictly_decreasing_in_stages(self):
        p0 = [ideal_distribution(SourceConfig(m=m, mu=0.05)).p(0) for m in range(0, 11)]
        assert all(a > b for a, b in zip(p0, p0[1:]))

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            ideal_distribution(SourceConfig(m=0, mu=0.1), n_max=1)


def _ideal_mandel_q_closed_form(mu: float, m: int) -> float:
    # Independent route: with x = P0(mu_total), the factorized moments give
    # Q = mu * (1 - (1 - x) / (1 - e^-mu)).
    x = math.exp(-(2**m) * mu)
    return mu * (1.0 - (1.0 - x) / (-math.expm1(-mu)))


class TestMandelQ:
    def test_poissonian_is_zero(self):
        for mu in (0.05, 0.5, 1.7):
            dist = PhotonDistribution(poisson_vector(mu, 40), 40,
                                      tail_mass=float(sps.poisson.sf(40, mu)))
            assert abs(mandel_q(dist)) < 1e-9

    def test_number_state_is_minus_one(self):
        probs = np.zeros(5)
        probs[1] = 1.0
        assert mandel_q(PhotonDistribution(probs, 4)) == pytest.approx(-1.0)

    def test_vacuum_is_undefined(self):
        probs = np.zeros(3)
        probs[0] = 1.0
        with pytest.raises(ValueError, match=r"^Mandel Q is undefined for the vacuum state \(<n> = 0\)$"):
            mandel_q(PhotonDistribution(probs, 2))
        # In a block, Q is NaN in the vacuum row alone, and each other row's
        # Q is what mandel_q gives for it.
        block = np.array([[0.5, 0.3, 0.2], probs, [0.0, 1.0, 0.0]])
        q = mandel_q_rows(block)
        assert math.isnan(q[1]) and not np.isnan(q[[0, 2]]).any()
        for row in (0, 2):
            assert mandel_q(PhotonDistribution(block[row], 2)) == q[row]

    def test_matches_closed_form_over_random_inputs(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            m = int(rng.integers(0, 11))
            mu = float(rng.uniform(5e-3, 1.5))
            got = mandel_q(ideal_distribution(SourceConfig(m=m, mu=mu), n_max=40))
            assert got == pytest.approx(_ideal_mandel_q_closed_form(mu, m), rel=1e-9, abs=1e-11)


class TestSnr:
    def test_direct_ratio(self):
        dist = PhotonDistribution(np.array([0.5, 0.3, 0.2]), 2)
        assert snr(dist) == pytest.approx(1.5, rel=1e-15)

    def test_poisson_value_from_arbitrary_precision(self):
        dist = PhotonDistribution(poisson_vector(0.1, 30), 30,
                                  tail_mass=float(sps.poisson.sf(30, 0.1)))
        assert snr(dist) == pytest.approx(19.338925609931585, rel=1e-12)

    def test_no_multiphoton_gives_infinity(self):
        probs = np.array([0.4, 0.6])
        assert snr(PhotonDistribution(probs, 1)) == math.inf
        assert snr(PhotonDistribution(np.array([1.0]), 0)) == math.inf


def _raised(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return type(info.value), str(info.value)


class TestCheckRows:
    """check_rows raises, for the first failing row, what PhotonDistribution raises."""

    N_MAX = 8
    GOOD = poisson_vector(0.1, N_MAX)
    GOOD_TAIL = 1.0 - float(GOOD.sum())

    def faulty(self):
        outside = self.GOOD.copy()
        outside[3] = -2e-12
        return [
            (outside, self.GOOD_TAIL),
            (self.GOOD, -2e-15),
            (self.GOOD * (1.0 - 2e-9), 2e-9),
            (self.GOOD * 0.9, self.GOOD_TAIL),
        ]

    def test_good_rows_pass(self):
        check_rows(np.tile(self.GOOD, (4, 1)), np.full(4, self.GOOD_TAIL), self.N_MAX)

    def test_each_fault_raises_as_photon_distribution(self):
        for row, tail in self.faulty():
            want = _raised(lambda: PhotonDistribution(row, self.N_MAX, tail))
            probs = np.tile(self.GOOD, (4, 1))
            probs[2] = row
            tails = np.full(4, self.GOOD_TAIL)
            tails[2] = tail
            assert _raised(lambda: check_rows(probs, tails, self.N_MAX)) == want

    def test_first_failing_row_decides(self):
        faults = self.faulty()
        probs = np.array([self.GOOD, faults[3][0], faults[0][0]])
        tails = np.array([self.GOOD_TAIL, faults[3][1], faults[0][1]])
        want = _raised(lambda: PhotonDistribution(faults[3][0], self.N_MAX, faults[3][1]))
        assert _raised(lambda: check_rows(probs, tails, self.N_MAX)) == want

    def test_a_nan_entry_fails_its_row(self):
        probs = np.tile(self.GOOD, (3, 1))
        probs[1, 4] = np.nan
        with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
            check_rows(probs, np.full(3, self.GOOD_TAIL), self.N_MAX)

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError, match="n_max\\+1 = 9"):
            check_rows(np.tile(self.GOOD[:-1], (2, 1)), np.zeros(2), self.N_MAX)

    def test_rejects_a_one_dimensional_probs(self):
        with pytest.raises(ValueError, match=r"^probs must be two-dimensional, got shape \(9,\)$"):
            check_rows(self.GOOD, np.zeros(1), self.N_MAX)
