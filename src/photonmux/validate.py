"""Verification checks shared by ``photonmux validate`` and the test suite.

Each ``check_*`` function is the one definition of a check: its
configurations, its seed and its threshold.  Acceptance criteria 5-8 in
``tests/test_acceptance.py`` call ``check_clock``, ``check_reductions``,
``check_agreement`` and ``check_optimizer``; ``tests/test_losses.py`` calls
the event-level reference and loss-trend invariants.  ``run_validation`` runs
all of them, so the CLI applies the same seeds and thresholds as the tests;
only the Monte Carlo size and seed are the caller's.  A check that samples
parameters draws them from its own fixed seed, so adding or reordering checks
never shifts another check's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .config import SourceConfig
from .losses import _inputs, _p1_rows, output_distribution
from .montecarlo import McConfig, compare, simulate
from .optimize import search
from .stats import DEFAULT_N_MAX, ideal_distribution, poisson_vector

__all__ = [
    "AGREEMENT_CONFIGS", "DARK_MIXTURE_POINTS", "TRANSMISSION_FIELDS", "Check",
    "ValidationReport",
    "check_agreement", "check_clock", "check_event_reference", "check_optimizer",
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

# Transmissions the below-optimum trend check raises over 0.2..1.
TRANSMISSION_FIELDS: Tuple[str, ...] = ("e_s", "e_h")


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
    cfg = SourceConfig(m=4, delta_t0_ns=2.0, mu=0.1)
    ok = cfg.period_ns == 32.0 and cfg.clock_hz == 31.25e6
    return Check("clock arithmetic", ok, f"m=4, 2 ns -> {cfg.period_ns} ns, "
                                         f"{cfg.clock_hz / 1e6} MHz (exact)")


def check_reductions() -> Tuple[Check, ...]:
    """Reduction identities of the chain on 100 random draws.

    Each draw yields a lossless config (chain = exact form), a lossy
    single-window config at the same mu (chain = thinned Poisson) and a
    wide-range config (normalization); the draw order is part of the check.
    """
    rng = np.random.default_rng(60_601)
    worst_lossless = worst_single = worst_norm = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 10))
        mu = float(rng.uniform(1e-4, 1.5))
        cfg = SourceConfig(m=m, mu=mu)
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

    return (
        _below("lossless chain = exact form", worst_lossless, 1e-12),
        _below("single-window chain = thinned Poisson", worst_single, 1e-12),
        _below("chain normalization", worst_norm, 1e-9, "max |sum - 1|"),
    )


def _event_reference(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> List[float]:
    """P_k for k = 0..n_max, summed event by event as the simulator draws
    them, in plain floats from the raw fields of ``cfg``.

    Each of the 2**m windows holds Pois(mu) pairs (up to 80) and stays silent
    with probability (1 - e_h)^n (1 - P_dark).  The first window that
    triggers is routed, or the last one when none does; each of its photons
    then survives e_s and m+1 switch passages independently.
    """
    pairs = [cfg.mu ** n * math.exp(-cfg.mu - math.lgamma(n + 1)) for n in range(81)]
    dark = -math.expm1(-cfg.r_dark * cfg.delta_t0_ns * 1e-9)  # per window
    silent = [(1 - cfg.e_h) ** n * (1 - dark) for n in range(81)]
    q = sum(p * s for p, s in zip(pairs, silent))
    windows = 2 ** cfg.m
    reached = sum(q ** j for j in range(windows))  # window j after j silent ones
    routed = [p * ((1 - s) * reached + s * q ** (windows - 1)) for p, s in zip(pairs, silent)]
    t = cfg.e_s * 10 ** (-cfg.e_sw_db * (cfg.m + 1) / 10)
    lost = [(1 - t) ** j for j in range(81)]  # j of the n photons lost
    return [t ** k * sum(routed[n] * math.comb(n, k) * lost[n - k] for n in range(k, 81))
            for k in range(n_max + 1)]


# (m, mu, P_dark) points at e_h = 0.85 and transmission 1, where dark counts
# and heralding loss both shape the routed-window mixture.
DARK_MIXTURE_POINTS = ((2, 0.1, 0.01), (4, 0.3, 0.05), (6, 0.05, 0.002))


def _dark_mixture_config(m: int, mu: float, p_dark: float) -> SourceConfig:
    """The config of one of :data:`DARK_MIXTURE_POINTS`."""
    return SourceConfig(m=m, mu=mu, e_h=0.85, r_dark=-math.log1p(-p_dark) / 2e-9)


def check_event_reference() -> Check:
    """The chain against :func:`_event_reference` on 50 random configs, and
    at transmission 1 on three points of heralding loss and dark counts."""
    rng = np.random.default_rng(31_031)
    configs = [SourceConfig(
        m=int(rng.integers(0, 9)),
        mu=float(rng.uniform(1e-3, 1.5)),
        e_h=float(rng.uniform(0.0, 1.0)),
        e_s=float(rng.uniform(0.0, 1.0)),
        e_sw_db=float(rng.uniform(0.0, 2.0)),
        r_dark=float(rng.choice([0.0, 1e5, 5e6, 5e7])),
    ) for _ in range(50)]
    configs += [_dark_mixture_config(*point) for point in DARK_MIXTURE_POINTS]
    worst = max(float(np.abs(output_distribution(cfg).probs - _event_reference(cfg)).max())
                for cfg in configs)
    return _below("chain = event-level reference", worst, 1e-12)


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


def check_transmission_trend() -> Check:
    """Below the optimal pump (m=4, mu=0.05), P1 never falls as each of
    ``TRANSMISSION_FIELDS`` rises over 0.2..1."""
    cfg = SourceConfig(m=4, mu=0.05, e_h=0.85, e_s=0.9, e_sw_db=0.5)
    failing = []
    for name in TRANSMISSION_FIELDS:
        p1 = [output_distribution(cfg.replace(**{name: float(v)})).p(1)
              for v in np.linspace(0.2, 1.0, 17)]
        if not all(b >= a - 1e-12 for a, b in zip(p1, p1[1:])):
            failing.append(name)
    return Check("P1 non-decreasing in transmissions", not failing,
                 "falls in " + ", ".join(failing) if failing
                 else ", ".join(TRANSMISSION_FIELDS) + " x 17 points")


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
    lossless = [SourceConfig(m=m, mu=1e-3) for m in range(0, 9)]
    results = search([(cfg, None) for cfg in lossy + lossless])
    worst_mu = worst_p1 = 0.0
    for cfg, result in zip(lossy, results):
        p1 = _p1_rows(grid, *_inputs(cfg))
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
        check_event_reference(),
        check_switch_loss_trend(),
        check_transmission_trend(),
        *check_optimizer(),
        check_agreement(mc, backend),
    ))
