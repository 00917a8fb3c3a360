"""Property tests of the loss chain over the whole parameter box.

Hypothesis draws configurations from m in 0..30, mu in [0, 2], e_h and e_s
in [0, 1] with both edges, switch loss in [0, 2] dB and a per-window
dark-count probability from 0 up to 1 - 1e-9.  Runs are derandomized so
that tier-1 sees the same examples every time.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmux import SourceConfig, output_distribution
from photonmux.losses import p1_snr_curve

DELTA_T0_NS = 2.0
PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

unit = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
p_dark = st.sampled_from((0.0, 1.0 - 1e-9)) | st.floats(0.0, 1.0 - 1e-9)


def _config(m, mu, e_h, e_s, il, pd):
    r_dark = -math.log1p(-pd) / (DELTA_T0_NS * 1e-9)
    return SourceConfig(m=m, delta_t0_ns=DELTA_T0_NS, mu=mu, e_h=e_h, e_s=e_s,
                        e_sw_db=il, r_dark=r_dark)


configs = st.builds(
    _config,
    m=st.integers(0, 30),
    mu=st.sampled_from((0.0,)) | st.floats(0.0, 2.0),
    e_h=unit,
    e_s=unit,
    il=st.floats(0.0, 2.0),
    pd=p_dark,
)


@PROPERTY_SETTINGS
@given(configs)
def test_chain_normalizes(cfg):
    dist = output_distribution(cfg)
    assert abs(float(dist.probs.sum()) + dist.tail_mass - 1.0) < 1e-9


@PROPERTY_SETTINGS
@given(configs)
def test_batched_p1_equals_scalar(cfg):
    p1, _ = p1_snr_curve(cfg, [cfg.mu])
    assert abs(p1[0] - output_distribution(cfg).p(1)) < 1e-12


@PROPERTY_SETTINGS
@given(configs, st.floats(0.0, 0.5))
def test_p1_non_increasing_in_switch_loss_at_low_pump(cfg, mu):
    # Above mu ~ 0.5 thinning a multi-photon state can raise P1, so the
    # trend is only claimed at low pump rates.
    p1 = [output_distribution(cfg.replace(mu=mu, e_sw_db=float(il))).p(1)
          for il in np.linspace(0.0, 2.0, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(p1, p1[1:]))
