import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from photonmux import SourceConfig, output_distribution


def test_derived_quantities():
    cfg = SourceConfig(m=4, delta_t0_ns=2.0, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
    assert cfg.n_windows == 16
    assert cfg.mu_total == pytest.approx(1.6, rel=1e-15)
    assert cfg.period_ns == 32.0
    assert cfg.clock_hz == pytest.approx(31.25e6, rel=1e-15)
    assert cfg.e_s_total == pytest.approx(0.9 * 10 ** -0.25, rel=1e-14)
    assert cfg.p_dark == 0.0


def test_dark_count_probability():
    cfg = SourceConfig(m=0, mu=0.1, r_dark=5.0e6, delta_t0_ns=2.0)
    assert cfg.p_dark == pytest.approx(-math.expm1(-5.0e6 * 2e-9), rel=1e-15)


def test_mu_from_rate():
    cfg = SourceConfig(m=2, delta_t0_ns=2.0, herald_rate_r=50e6)
    assert cfg.mu == pytest.approx(0.1, rel=1e-15)


def test_mu_rate_consistent_pair_accepted():
    cfg = SourceConfig(m=0, delta_t0_ns=2.0, mu=0.1, herald_rate_r=50e6)
    assert cfg.mu == pytest.approx(0.1)


def test_mu_rate_inconsistent_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        SourceConfig(m=0, delta_t0_ns=2.0, mu=0.1, herald_rate_r=100e6)


def test_missing_pump_spec_rejected():
    with pytest.raises(ValueError, match="mu or herald_rate_r"):
        SourceConfig(m=0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("m", -1),
        ("m", 1.5),
        ("delta_t0_ns", 0.0),
        ("delta_t0_ns", -2.0),
        ("mu", -0.1),
        ("e_h", 1.2),
        ("e_h", -0.1),
        ("e_s", 2.0),
        ("e_sw_db", -0.5),
        ("r_dark", -1.0),
        # A bool, a string, None and a Decimal are not real numbers.  A None
        # herald_rate_r is the default, so that case is left out.
        *((field, value)
          for field in ("delta_t0_ns", "mu", "herald_rate_r", "e_h", "e_s", "e_sw_db", "r_dark")
          for value in (True, "0.1", None, Decimal("0.1"))
          if (field, value) != ("herald_rate_r", None)),
    ],
)
def test_field_validation(field, value):
    kwargs = {"mu": 0.1}
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        SourceConfig(**kwargs)


@pytest.mark.parametrize("field,value,message", [
    ("mu", -0.1, "mu must be finite and >= 0, got -0.1"),
    ("delta_t0_ns", 0.0, "delta_t0_ns must be finite and > 0, got 0.0"),
    ("e_h", 1.2, "e_h must lie in [0, 1], got 1.2"),
])
def test_out_of_range_messages(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SourceConfig(**{"mu": 0.1, field: value})


def test_real_fields_are_kept_as_given():
    cfg = SourceConfig(m=2, delta_t0_ns=4, herald_rate_r=25_000_000)
    assert type(cfg.delta_t0_ns) is int and type(cfg.herald_rate_r) is int


_DARK_M4 = dict(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6)


# Stored as given, np.float32 ran the loss chain in float32, whose tail mass
# failed the truncation guard, and a Fraction had no expm1.
@pytest.mark.parametrize("field,value,as_float", [
    ("mu", np.float32(0.1), float(np.float32(0.1))),
    ("e_h", np.float32(0.85), float(np.float32(0.85))),
    ("mu", Fraction(1, 10), 0.1),
], ids=["mu-float32", "e_h-float32", "mu-Fraction"])
def test_other_reals_are_stored_as_floats(field, value, as_float):
    cfg = SourceConfig(**{**_DARK_M4, field: value})
    assert type(getattr(cfg, field)) is float
    got = output_distribution(cfg)
    want = output_distribution(SourceConfig(**{**_DARK_M4, field: as_float}))
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.config == want.config


def test_a_numpy_float64_is_stored_as_a_float():
    assert type(SourceConfig(m=2, mu=np.float64(0.1)).mu) is float


# The loss chain takes the 2**m windows as a float, and 2**1024 overflows one.
@pytest.mark.parametrize("m", [math.inf, math.nan, True, False, 1024, 100_000, "3", None])
def test_m_must_be_an_integer_whose_window_count_fits_a_float(m):
    with pytest.raises(ValueError, match=rf"^m must be an integer in \[0, 1023\], "
                                         rf"got {re.escape(repr(m))}$"):
        SourceConfig(m=m, mu=0.1)


def test_largest_m_is_accepted():
    assert SourceConfig(m=1023, mu=0.1).m == 1023
    assert SourceConfig(m=2.0, mu=0.1).m == 2


def test_replace_mu_drops_stale_rate():
    cfg = SourceConfig(m=0, delta_t0_ns=2.0, herald_rate_r=50e6)
    newer = cfg.replace(mu=0.3)
    assert newer.mu == 0.3
    assert newer.herald_rate_r is None


def test_replace_rate_derives_mu():
    newer = SourceConfig(m=2, mu=0.1).replace(herald_rate_r=1e8)
    assert newer.herald_rate_r == 1e8 and newer.mu == pytest.approx(0.2, rel=1e-15)
    # Dropping the rate keeps the mu it implied.
    assert newer.replace(herald_rate_r=None).mu == newer.mu
    # A mu named with the rate is cross-checked against it.
    assert SourceConfig(m=2, mu=0.1).replace(mu=0.2, herald_rate_r=1e8).mu == 0.2
    with pytest.raises(ValueError, match="inconsistent"):
        SourceConfig(m=2, mu=0.1).replace(mu=0.3, herald_rate_r=1e8)


def test_replace_window_keeps_the_rate():
    cfg = SourceConfig(m=2, herald_rate_r=5e7)
    newer = cfg.replace(delta_t0_ns=4.0)
    assert newer.herald_rate_r == 5e7 and newer.mu == pytest.approx(0.2, rel=1e-15)
    # Named with the window, mu wins and the rate is dropped.
    assert cfg.replace(delta_t0_ns=4.0, mu=0.3) == SourceConfig(m=2, delta_t0_ns=4.0, mu=0.3)
    # Without a rate, a new window keeps mu.
    assert SourceConfig(m=2, mu=0.1).replace(delta_t0_ns=4.0).mu == 0.1


def test_lossless_constructor():
    cfg = SourceConfig(m=3, mu=0.05)
    assert cfg.e_h == 1.0 and cfg.e_s == 1.0
    assert cfg.e_sw_db == 0.0 and cfg.r_dark == 0.0
    assert cfg.e_s_total == 1.0 and cfg.p_dark == 0.0
