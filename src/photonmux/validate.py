"""Verification checks shared by ``photonmux validate`` and the test suite.

Each ``check_*`` function is the one definition of a check: its
configurations, its seed and its threshold.  Acceptance criteria 5-8 in
``tests/test_acceptance.py`` call ``check_clock``, ``check_reductions``,
``check_agreement`` and ``check_optimizer``; ``tests/test_losses.py`` calls
the dark-count mixture and loss-trend invariants.  ``run_validation`` runs
all of them, so the CLI applies the same seeds and thresholds as the tests;
only the Monte Carlo size and seed are the caller's.  A check that samples
parameters draws them from its own fixed seed, so adding or reordering checks
never shifts another check's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import SourceConfig
from .losses import (
    heralded_distribution,
    output_distribution,
    p1_snr_curve,
    with_dark_counts,
)
from .montecarlo import McConfig, compare, simulate
from .optimize import optimize_mu_batch
from .stats import ideal_distribution, poisson_vector
from .sweeps import clock_report

__all__ = [
    "AGREEMENT_CONFIGS", "DARK_MIXTURE_POINTS", "Check", "ValidationReport",
    "check_agreement", "check_clock", "check_dark_count_mixture", "check_optimizer",
    "check_reductions", "check_switch_loss_trend", "check_transmission_trend",
    "run_validation",
]

# Oracle grid: the headline efficiencies over m, mu and switch loss, plus one
# dark-count point.
AGREEMENT_CONFIGS: Tuple[SourceConfig, ...] = tuple(
    SourceConfig(m=m, mu=mu, e_h=0.85, e_s=0.9, e_sw_db=il)
    for m in (0, 2, 4)
    for mu in (0.05, 0.1, 0.5)
    for il in (0.5, 1.0)
) + (SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6),)

# (m, mu, dark-count probability per window) of the dark-count mixture check.
DARK_MIXTURE_POINTS: Tuple[Tuple[int, float, float], ...] = (
    (2, 0.1, 0.01), (4, 0.3, 0.05), (6, 0.05, 0.002),
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> List[str]:
        out = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks]
        out.append(f"validation: {'PASS' if self.passed else 'FAIL'} "
                   f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return out


def _below(name: str, value: float, limit: float, what: str = "max deviation") -> Check:
    return Check(name, value < limit, f"{what} {value:.1e} (limit {limit:g})")


def check_clock() -> Check:
    """Four stages of 2 ns windows give exactly a 32 ns, 31.25 MHz clock."""
    report = clock_report(SourceConfig(m=4, delta_t0_ns=2.0, mu=0.1))
    ok = report.period_ns == 32.0 and report.frequency_hz == 31.25e6
    return Check("clock arithmetic", ok, f"m=4, 2 ns -> {report.period_ns} ns, "
                                         f"{report.frequency_hz / 1e6} MHz (exact)")


def check_reductions() -> Tuple[Check, ...]:
    """Reduction identities of the chain on 100 random draws, and the herald
    branches' truncated sums against their closed forms on 200 more.

    Each of the 100 draws yields a lossless config (chain = exact form), a
    lossy single-window config at the same mu (chain = thinned Poisson) and a
    wide-range config (normalization); the draw order is part of the check.
    """
    rng = np.random.default_rng(60_601)
    worst_lossless = worst_single = worst_norm = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 10))
        mu = float(rng.uniform(1e-4, 1.5))
        cfg = SourceConfig.lossless(m=m, mu=mu)
        chain = output_distribution(cfg)
        worst_lossless = max(worst_lossless,
                             float(np.abs(chain.probs - ideal_distribution(cfg).probs).max()))

        lossy = SourceConfig(
            m=0, mu=mu,
            e_h=float(rng.uniform(0.05, 1.0)),
            e_s=float(rng.uniform(0.3, 1.0)),
            e_sw_db=float(rng.uniform(0.0, 2.0)),
            r_dark=float(rng.choice([0.0, 1e5, 5e6])),
        )
        out = output_distribution(lossy)
        thinned = poisson_vector(lossy.mu * lossy.e_s_total, out.n_max)
        worst_single = max(worst_single, float(np.abs(out.probs - thinned).max()))

        wide = SourceConfig(
            m=int(rng.integers(0, 13)), mu=float(rng.uniform(1e-6, 2.0)),
            e_h=float(rng.uniform(0.0, 1.0)), e_s=float(rng.uniform(0.0, 1.0)),
            e_sw_db=float(rng.uniform(0.0, 2.0)),
            r_dark=float(rng.choice([0.0, 1e4, 5e6])),
        )
        dist = output_distribution(wide, n_max=40)
        worst_norm = max(worst_norm, abs(float(dist.probs.sum()) + dist.tail_mass - 1.0))

    worst_closed = 0.0
    n = np.arange(61)
    for _ in range(200):
        mu = float(rng.uniform(1e-4, 2.0))
        e_h = float(rng.uniform(0.05, 1.0))
        pois = poisson_vector(mu, 60)
        miss = (1.0 - e_h) ** n
        worst_closed = max(
            worst_closed,
            abs(float((pois * (1 - miss)).sum()) - (-math.expm1(-mu * e_h))),
            abs(float((pois * miss).sum()) - math.exp(-mu * e_h)),
        )
    return (
        _below("lossless chain = exact form", worst_lossless, 1e-12),
        _below("single-window chain = thinned Poisson", worst_single, 1e-12),
        _below("chain normalization", worst_norm, 1e-9, "max |sum - 1|"),
        _below("herald-branch closed forms", worst_closed, 1e-10),
    )


def check_dark_count_mixture(points: Sequence[Tuple[int, float, float]] = DARK_MIXTURE_POINTS
                             ) -> Check:
    """Factored dark-count mixture equals the literal sum over the window of
    the first dark count, at each (m, mu, P_dark) of ``points``."""
    worst = 0.0
    for m, mu, p_dark in points:
        r_dark = -math.log1p(-p_dark) / 2e-9
        cfg = SourceConfig(m=m, mu=mu, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=r_dark)
        mixed = with_dark_counts(cfg)
        literal = np.zeros(mixed.n_max + 1)
        w = cfg.n_windows
        for length in range(1, w + 1):
            weight = (1 - cfg.p_dark) ** (length - 1) * cfg.p_dark
            literal += weight * heralded_distribution(cfg, length).probs
        literal += (1 - cfg.p_dark) ** w * heralded_distribution(cfg, w).probs
        worst = max(worst, float(np.abs(mixed.probs - literal).max()))
    return _below("dark-count mixture", worst, 1e-12)


def check_switch_loss_trend() -> Check:
    """P1 never rises with switch loss over 0..2 dB, for mu in {0.1, 0.2} and
    m in {0, 2, 4}."""
    failing = []
    for mu in (0.1, 0.2):
        for m in (0, 2, 4):
            p1 = [output_distribution(SourceConfig(m=m, mu=mu, e_h=0.85, e_s=0.9,
                                                   e_sw_db=float(il))).p(1)
                  for il in np.linspace(0.0, 2.0, 21)]
            if not all(a >= b - 1e-12 for a, b in zip(p1, p1[1:])):
                failing.append(f"mu={mu}, m={m}")
    return Check("P1 non-increasing in switch loss", not failing,
                 "rises at " + "; ".join(failing) if failing else "6 curves x 21 points")


def check_transmission_trend(fields: Sequence[str] = ("e_s", "e_h")) -> Check:
    """Below the optimal pump (m=4, mu=0.05), P1 never falls as each of
    ``fields`` rises over 0.2..1."""
    cfg = SourceConfig(m=4, mu=0.05, e_h=0.85, e_s=0.9, e_sw_db=0.5)
    failing = []
    for name in fields:
        p1 = [output_distribution(cfg.replace(**{name: float(v)})).p(1)
              for v in np.linspace(0.2, 1.0, 17)]
        if not all(b >= a - 1e-12 for a, b in zip(p1, p1[1:])):
            failing.append(name)
    return Check("P1 non-decreasing in transmissions", not failing,
                 "falls in " + ", ".join(failing) if failing else ", ".join(fields) + " x 17 points")


def check_optimizer() -> Tuple[Check, Check]:
    """``optimize_mu`` against a 100,001-point scan of [1e-4, 2] on 10 random
    lossy configs, and the lossless mu_opt strictly decreasing over m=0..8;
    the 19 searches run in lockstep."""
    rng = np.random.default_rng(88_088)
    grid = np.linspace(1e-4, 2.0, 100_001)
    lossy = [SourceConfig(
        m=int(rng.integers(0, 6)),
        mu=1e-3,
        e_h=float(rng.uniform(0.5, 1.0)),
        e_s=float(rng.uniform(0.5, 1.0)),
        e_sw_db=float(rng.uniform(0.1, 1.5)),
    ) for _ in range(10)]
    lossless = [SourceConfig.lossless(m=m, mu=1e-3) for m in range(0, 9)]
    results = optimize_mu_batch(lossy + lossless)
    worst_mu = worst_p1 = 0.0
    for cfg, result in zip(lossy, results):
        p1, _ = p1_snr_curve(cfg, grid)
        best = int(np.argmax(p1))
        worst_mu = max(worst_mu, abs(result.mu_opt - float(grid[best])))
        worst_p1 = max(worst_p1, abs(result.p1_max - float(p1[best])))
    mu_opts = [result.mu_opt for result in results[len(lossy):]]
    decreasing = all(a > b for a, b in zip(mu_opts, mu_opts[1:]))
    return (
        Check("optimizer = exhaustive scan", worst_mu < 1e-5 and worst_p1 < 1e-8,
              f"10 lossy configs vs {grid.size}-point grid: worst |dmu| {worst_mu:.1e} "
              f"(limit 1e-05), worst |dP1| {worst_p1:.1e} (limit 1e-08)"),
        Check("ideal mu_opt strictly decreasing over m=0..8", decreasing,
              "mu_opt " + ", ".join(f"{mu:.4f}" for mu in mu_opts)),
    )


def check_agreement(mc: McConfig, backend: Optional[str] = None) -> Check:
    """Analytic chain against the event-level simulator on every config of
    ``AGREEMENT_CONFIGS``, under ``compare``'s default limits."""
    worst_tv = worst_z = 0.0
    failing = []
    vacuous = False
    for cfg in AGREEMENT_CONFIGS:
        report = compare(output_distribution(cfg), simulate(cfg, mc, backend))
        vacuous |= report.tv_vacuous
        tv_ratio = report.tv_distance / report.tv_limit
        worst_tv = max(worst_tv, tv_ratio)
        worst_z = max(worst_z, report.max_abs_z)
        if not report.passed:
            failing.append(f"m={cfg.m} mu={cfg.mu} e_sw_db={cfg.e_sw_db} r_dark={cfg.r_dark:g} "
                           f"(TV ratio {tv_ratio:.3f}, |z| {report.max_abs_z:.2f})")
    detail = f"worst TV ratio {worst_tv:.3f}, worst |z| {worst_z:.2f}"
    if vacuous:
        detail += f"; TV gate cannot fail at {mc.trials} trials (limit >= 1)"
    if failing:
        detail += "; failing: " + "; ".join(failing)
    return Check(f"Monte Carlo agreement ({len(AGREEMENT_CONFIGS)} configs x {mc.trials} trials)",
                 not failing, detail)


def run_validation(mc: McConfig, backend: Optional[str] = None) -> ValidationReport:
    """Run every check; ``mc`` sizes and seeds the Monte Carlo agreement."""
    return ValidationReport((
        check_clock(),
        *check_reductions(),
        check_dark_count_mixture(),
        check_switch_loss_trend(),
        check_transmission_trend(),
        *check_optimizer(),
        check_agreement(mc, backend),
    ))
