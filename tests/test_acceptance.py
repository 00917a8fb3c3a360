"""Acceptance suite: headline targets, reductions, oracle equivalence.

Every check here pins a stated tolerance; run with ``pytest -v -s`` to get
one PASS/FAIL line per criterion.  Criteria 1, 2 and 4b compare the program
with closed forms written out below, which use only ``math`` and ``scipy``:
the stationary point and Mandel Q of the lossless P1(mu), and the generating
function of the lossy chain.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from photonmux import (
    McConfig,
    SourceConfig,
    ideal_distribution,
    mandel_q,
    optimize_mu,
    output_distribution,
    snr,
)
from photonmux.losses import p1_snr_curve
from photonmux.sweeps import figure3
from photonmux.validate import (
    AGREEMENT_CONFIGS,
    check_agreement,
    check_clock,
    check_optimizer,
    check_reductions,
)

HEADLINE = dict(e_h=0.85, e_s=0.9)


def _report(number: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print("\n" + line, flush=True)
    return line


def _lossless_p1_stationary_mu(m: int) -> float:
    """Root of d ln P1 / d mu for the lossless P1(mu) = h mu e^-mu / c, where
    h = 1 - e^(-2^m mu) is the herald probability and c = 1 - e^-mu."""
    n = 2 ** m

    def dlog_p1(mu: float) -> float:
        return (n * math.exp(-n * mu) / -math.expm1(-n * mu) + 1.0 / mu - 1.0
                - math.exp(-mu) / -math.expm1(-mu))

    return brentq(dlog_p1, 1e-6, 1.0, xtol=1e-15)


def _lossless_mandel_q(m: int, mu: float) -> float:
    """Q = (<n^2> - <n>^2 - <n>) / <n> with <n> = h mu / c and
    <n^2> = h (mu + mu^2) / c, which reduces to mu (1 - h / c)."""
    h = -math.expm1(-(2 ** m) * mu)
    c = -math.expm1(-mu)
    return mu * (1.0 - h / c)


def test_criterion_1_deep_multiplexing_mandel_q():
    """Lossless Mandel Q at ten stages and the optimal pump, against the
    closed-form stationary point of P1(mu) and the closed-form Q there."""
    t0 = time.perf_counter()
    result = optimize_mu(SourceConfig(m=10, mu=1e-3))
    dist = ideal_distribution(SourceConfig(m=10, mu=result.mu_opt))
    q = mandel_q(dist)
    elapsed = time.perf_counter() - t0
    mu_star = _lossless_p1_stationary_mu(10)
    q_ref = _lossless_mandel_q(10, result.mu_opt)
    checks = {
        "mu_opt = stationary root (1e-6)": abs(result.mu_opt - mu_star) < 1e-6,
        "Q = closed form (1e-12)": abs(q - q_ref) < 1e-12,
        "Q <= -0.985": q <= -0.985,
        "runtime < 1 s": elapsed < 1.0,
    }
    line = _report(1, all(checks.values()),
                   f"Q(m=10, mu_opt={result.mu_opt:.6f}) = {q:.6f}, closed form "
                   f"{q_ref:.6f}; stationary root {mu_star:.6f}, {elapsed:.2f} s")
    assert elapsed < 1.0
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, (
        f"{line}\nfailed sub-checks: {failed}; references: the root of "
        "d ln P1/d mu for P1 = (1-e^(-N mu)) mu e^-mu / (1-e^-mu), N = 2^m, "
        "and Q = mu (1 - (1-e^(-N mu)) / (1-e^-mu))"
    )


def _chain_p0_p1(m: int, mu: float, e_h: float, e_s: float, il_db: float):
    """P0 = G(1-t) and P1 = t G'(1-t) from the generating function of the
    routed window, G = w G_click + (1-w) G_miss, where

    G_click(s) = (e^(mu(s-1)) - e^(mu((1-e_h)s-1))) / (1 - e^(-mu e_h)),
    G_miss(s) = e^(mu(1-e_h)(s-1)),
    w = 1 - e^(-2^m mu e_h) and t = e_s 10^(-(m+1) IL / 10).
    """
    t = e_s * 10.0 ** (-(m + 1) * il_db / 10.0)
    s = 1.0 - t
    w = -math.expm1(-(2 ** m) * mu * e_h)
    click_den = -math.expm1(-mu * e_h)
    all_pairs = math.exp(mu * (s - 1.0))
    missed_pairs = math.exp(mu * ((1.0 - e_h) * s - 1.0))
    g_miss = math.exp(mu * (1.0 - e_h) * (s - 1.0))
    g = w * (all_pairs - missed_pairs) / click_den + (1.0 - w) * g_miss
    dg = (w * mu * (all_pairs - (1.0 - e_h) * missed_pairs) / click_den
          + (1.0 - w) * mu * (1.0 - e_h) * g_miss)
    return g, t * dg


def test_criterion_2_fivefold_improvement_at_half_db():
    """P1 and SNR at mu = 0.1, 0.5 dB switches, with and without correction;
    SNR(m=4) against the generating function of the chain."""
    t0 = time.perf_counter()
    d0 = output_distribution(SourceConfig(m=0, mu=0.1, e_sw_db=0.5, **HEADLINE))
    d4 = output_distribution(SourceConfig(m=4, mu=0.1, e_sw_db=0.5, **HEADLINE))
    p1_0, p1_4 = d0.p(1), d4.p(1)
    snr_0, snr_4 = snr(d0), snr(d4)
    ratio = p1_4 / p1_0
    elapsed = time.perf_counter() - t0
    p0_ref, p1_ref = _chain_p0_p1(4, 0.1, il_db=0.5, **HEADLINE)
    snr_4_ref = p1_ref / (1.0 - p0_ref - p1_ref)
    checks = {
        "P1(m=0) in 0.08+-0.02": 0.06 <= p1_0 <= 0.10,
        "P1(m=4) in 0.40+-0.05": 0.35 <= p1_4 <= 0.45,
        "ratio in [4, 6]": 4.0 <= ratio <= 6.0,
        "SNR(m=0) in 22+-5": 17.0 <= snr_0 <= 27.0,
        "SNR(m=4) = generating function (1e-9 rel)": abs(snr_4 - snr_4_ref) <= 1e-9 * snr_4_ref,
        "SNR(m=4) > SNR(m=0)": snr_4 > snr_0,
        "runtime < 1 s": elapsed < 1.0,
    }
    detail = (f"P1 {p1_0:.4f} -> {p1_4:.4f} (x{ratio:.2f}), "
              f"SNR {snr_0:.2f} -> {snr_4:.2f} (generating function {snr_4_ref:.2f}), "
              f"{elapsed:.2f} s")
    line = _report(2, all(checks.values()), detail)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, (
        f"{line}\nfailed sub-checks: {failed}; reference: P0 = G(1-t), P1 = t G'(1-t) "
        "for the herald-mixture generating function G with t = e_s 10^(-(m+1) IL/10)"
    )


def test_criterion_3_one_db_regime():
    """At 1 dB, both m=0 and m=4 reach P1 = 0.20 +- 0.04 with SNR within
    25 percent of the 10 -> 50 figures, and the m=4 operating point improves
    SNR at least fourfold."""
    t0 = time.perf_counter()
    grid = np.geomspace(1e-3, 2.0, 600)
    p1_lo, p1_hi = 0.20 - 0.04, 0.20 + 0.04
    windows = {0: (10.0 * 0.75, 10.0 * 1.25), 4: (50.0 * 0.75, 50.0 * 1.25)}
    points = {}
    for m, (snr_lo, snr_hi) in windows.items():
        cfg = SourceConfig(m=m, mu=1e-3, e_sw_db=1.0, **HEADLINE)
        p1, ratio = p1_snr_curve(cfg, grid)
        mask = (p1 >= p1_lo) & (p1 <= p1_hi) & (ratio >= snr_lo) & (ratio <= snr_hi)
        points[m] = (p1[mask], ratio[mask])
    elapsed = time.perf_counter() - t0
    exists = {m: p.size > 0 for m, (p, _) in points.items()}
    detail_parts = []
    ratio_ok = False
    if all(exists.values()):
        best0 = int(np.argmax(points[0][0]))
        best4 = int(np.argmax(points[4][0]))
        snr0 = points[0][1][best0]
        snr4 = points[4][1][best4]
        ratio_ok = snr4 >= 4.0 * snr0
        detail_parts.append(
            f"m=0: P1={points[0][0][best0]:.3f} SNR={snr0:.2f}; "
            f"m=4: P1={points[4][0][best4]:.3f} SNR={snr4:.2f} (x{snr4 / snr0:.1f})"
        )
    else:
        detail_parts.append(f"no operating point inside the joint windows for m with {exists}")
    ok = all(exists.values()) and ratio_ok and elapsed < 5.0
    line = _report(3, ok, "; ".join(detail_parts) + f", {elapsed:.2f} s")
    assert elapsed < 5.0
    assert all(exists.values()), line
    assert ratio_ok, line


@pytest.fixture(scope="module")
def fig3_table():
    return figure3()


def _per_curve_maxima(table, il_db):
    maxima = {}
    for record in table.records:
        if record.e_sw_db == il_db:
            maxima[record.m] = max(maxima.get(record.m, 0.0), record.p1)
    return maxima


def test_criterion_4a_half_db_peak_structure(fig3_table):
    """At 0.5 dB the per-curve maximum peaks at m = 3 and decreases beyond."""
    t0 = time.perf_counter()
    maxima = _per_curve_maxima(fig3_table, 0.5)
    elapsed = time.perf_counter() - t0
    decreasing_after_3 = all(maxima[m + 1] < maxima[m] for m in range(3, 5))
    peak_at_3 = max(maxima, key=maxima.get) == 3
    ok = decreasing_after_3 and peak_at_3 and elapsed < 10.0
    line = _report(4, ok, "0.5 dB per-curve max P1: "
                   + ", ".join(f"m={m}: {v:.4f}" for m, v in sorted(maxima.items()))
                   + f", {elapsed:.2f} s")
    assert elapsed < 10.0
    assert decreasing_after_3 and peak_at_3, line


def _chain_p1_max(m: int, il_db: float) -> float:
    """Bounded scalar maximum of the generating-function P1 over mu in [1e-3, 2]."""
    best = minimize_scalar(lambda mu: -_chain_p0_p1(m, mu, il_db=il_db, **HEADLINE)[1],
                           bounds=(1e-3, 2.0), method="bounded", options={"xatol": 1e-10})
    return -best.fun


def test_criterion_4b_one_db_ordering(fig3_table):
    """At 1 dB the correction stages that beat the uncorrected source at their
    respective maxima are those the generating function predicts, and fewer
    than at 0.5 dB."""
    t0 = time.perf_counter()
    maxima = _per_curve_maxima(fig3_table, 1.0)
    elapsed = time.perf_counter() - t0
    outperform = sorted(m for m in maxima if m > 0 and maxima[m] > maxima[0])
    reference = {m: _chain_p1_max(m, 1.0) for m in maxima}
    expected = sorted(m for m in reference if m > 0 and reference[m] > reference[0])
    worst_gap = max(abs(maxima[m] - reference[m]) for m in maxima)
    maxima_half = _per_curve_maxima(fig3_table, 0.5)
    outperform_half = {m for m in maxima_half if m > 0 and maxima_half[m] > maxima_half[0]}
    checks = {
        "outperform set = generating-function set": outperform == expected,
        "maxima = generating-function maxima (1e-3)": worst_gap < 1e-3,
        "1 dB set strict subset of 0.5 dB set": set(outperform) < outperform_half,
        "1 dB set stops short of m=5": 5 not in outperform,
        "runtime < 10 s": elapsed < 10.0,
    }
    line = _report(4, all(checks.values()), "1 dB outperform set "
                   + str(outperform)
                   + f" (generating function {expected}, 0.5 dB {sorted(outperform_half)})"
                   + ", maxima: " + ", ".join(f"m={m}: {v:.4f}" for m, v in sorted(maxima.items()))
                   + f", worst gap {worst_gap:.1e}, {elapsed:.2f} s")
    assert elapsed < 10.0
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, (
        f"{line}\nfailed sub-checks: {failed}; reference: bounded maximization over "
        "mu in [1e-3, 2] of P1 = t G'(1-t) for the herald-mixture generating function G"
    )


def _run_checks(number: int, run, limit: float = math.inf) -> None:
    """Time ``run()``, a sequence of shared ``photonmux.validate`` checks, and
    report them as one criterion line."""
    t0 = time.perf_counter()
    checks = run()
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < limit
    line = _report(number, ok, "; ".join(f"{c.name}: {c.detail}" for c in checks)
                   + f"; {elapsed:.2f} s")
    assert elapsed < limit, line
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"{line}\nfailed: {failed}"


def test_criterion_5_clock_arithmetic():
    _run_checks(5, lambda: [check_clock()])


def test_criterion_6_reduction_invariants():
    _run_checks(6, check_reductions, limit=10.0)


def test_criterion_7_oracle_equivalence():
    """Analytic chain versus the event-level simulator at one million trials
    per configuration."""
    assert len(AGREEMENT_CONFIGS) >= 18
    _run_checks(7, lambda: [check_agreement(McConfig(trials=1_000_000, seed=42))], limit=120.0)


def test_criterion_8_optimizer_soundness():
    _run_checks(8, check_optimizer, limit=30.0)
