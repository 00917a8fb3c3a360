"""Span tracing and per-layer probes for the traced run (--trace 1).

Spans are recorded from the benchmark's own files only: around each probe,
and, during the traced pass, around calls into the package modules by
wrapping module attributes for the duration of that pass.  Every span keeps
its name, start, end, parent and thread; spans stay in memory and are
written out when the run ends.

The probes time calls into each module's public functions.  Monte Carlo
probes draw and scan one chunk at a time, as ``_simulate_range`` does, and
never a whole workload's stream in one block.
"""

from __future__ import annotations

import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from photonmux import losses, montecarlo, optimize, stats, sweeps
from photonmux.config import SourceConfig
from photonmux.montecarlo import McConfig, McHistogram, _numpy_backend
from photonmux.montecarlo._tables import (
    PAIR_COUNT_CAP,
    build_tables,
    philox_at_trial,
    slots_per_trial,
)

from workloads import HEADLINE

LAYERS = ("bench", "sweeps", "optimize", "losses", "montecarlo")

# Module attributes wrapped with spans during the traced pass.  config and
# stats are left out: their calls are too many and too short to wrap without
# swamping the pass, so their probes below stand for them.
PATCHES = (
    (sweeps, "figure2", "sweeps.figure2"),
    (sweeps, "figure3", "sweeps.figure3"),
    (sweeps, "figure4", "sweeps.figure4"),
    (sweeps, "figure5", "sweeps.figure5"),
    (sweeps, "record_for", "sweeps.record_for"),
    (sweeps, "optimize_mu", "optimize.optimize_mu"),
    (sweeps, "max_p1_with_snr_floor", "optimize.max_p1_with_snr_floor"),
    (sweeps, "output_distribution", "losses.output_distribution"),
    (optimize, "optimize_mu", "optimize.optimize_mu"),
    (optimize, "output_distribution", "losses.output_distribution"),
    (optimize, "p1_snr_curve", "losses.p1_snr_curve"),
    (losses, "output_distribution", "losses.output_distribution"),
    (montecarlo, "simulate", "montecarlo.simulate"),
    (montecarlo, "compare", "montecarlo.compare"),
    (montecarlo, "build_tables", "montecarlo.build_tables"),
    (_numpy_backend, "run_chunk", "montecarlo.kernel"),
)

# One configuration per depth for every Monte Carlo probe.
MC_CONFIGS = {
    "m0": SourceConfig(m=0, mu=0.1, e_sw_db=0.5, **HEADLINE),
    "m4": SourceConfig(m=4, mu=0.1, e_sw_db=0.5, **HEADLINE),
    "m6": SourceConfig(m=6, mu=0.5, e_sw_db=1.0, **HEADLINE),
    "m10": SourceConfig(m=10, mu=0.05, e_sw_db=1.0, r_dark=5e6, **HEADLINE),
}
SIMULATE_TRIALS = {"m0": 1 << 20, "m4": 1 << 18, "m6": 1 << 16, "m10": 1 << 13}
SHARD_CONFIG = SourceConfig(m=8, mu=0.5, e_sw_db=1.0, **HEADLINE)
SHARD_TRIALS = 1 << 15


class Tracer:
    """In-memory span recorder; safe to use from the simulator's shard threads."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, thread ident]
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else None, threading.get_ident()])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def export(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0
        threads = {}
        return {
            "columns": ["name", "start_s", "end_s", "parent", "thread"],
            "spans": [[name, start - origin, end - origin, parent,
                       threads.setdefault(ident, len(threads))]
                      for name, start, end, parent, ident in self.spans],
        }


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the PATCHES attributes with spans; restore them on exit."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
    try:
        for (module, attr, name), (_, _, fn) in zip(PATCHES, originals):
            setattr(module, attr, tracer.wrap(name, fn))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def self_seconds(spans: list) -> dict:
    """Self time per layer on the main thread: span time not covered by child spans.

    Spans of the shard threads have no parent on the main thread; there the
    waiting ``montecarlo.simulate`` span already covers them.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    main = threading.main_thread().ident
    out = {f"self_s.{layer}": 0.0 for layer in LAYERS}
    for i, (name, start, end, _, ident) in enumerate(spans):
        if ident == main:
            out["self_s." + name.split(".")[0]] += end - start - covered[i]
    return out


# -- probes ------------------------------------------------------------------------


def per_call(fn, calls: int, repeats: int) -> float:
    """Median over repeats of the seconds one call takes."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def count_chain_calls(figure) -> int:
    """Calls to output_distribution that optimize makes while ``figure`` runs."""
    original = optimize.output_distribution
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    optimize.output_distribution = counted
    try:
        figure()
    finally:
        optimize.output_distribution = original
    return calls


def words_needed_per_trial(cfg: SourceConfig) -> float:
    """Expected stream words a trial reads, computed from the config.

    The scan reads the pair, herald and dark-count word of each window up to
    the first triggered one (all windows when none triggers), then one
    survival word.  A window stays silent with probability
    q = (1 - P_dark) exp(-mu e_h), so E[windows read] = (1 - q^W) / (1 - q).
    """
    windows = cfg.n_windows
    q = (1.0 - cfg.p_dark) * np.exp(-cfg.mu * cfg.e_h)
    scanned = windows if q == 1.0 else (1.0 - q ** windows) / (1.0 - q)
    return 3.0 * float(scanned) + 1.0


def probe_analytic(tracer: Tracer, repeats: int) -> dict:
    m4 = MC_CONFIGS["m4"]
    probs = stats.poisson_vector(0.1, stats.DEFAULT_N_MAX)
    tail = max(0.0, 1.0 - float(probs.sum()))
    template = SourceConfig(m=4, mu=1e-4, e_sw_db=0.5, **HEADLINE)
    grid = sweeps.DEFAULT_MU_GRID
    out = {}
    timed = {
        "config.replace_us": (lambda: m4.replace(mu=0.2), 2000, 1e6),
        "stats.photon_distribution_us":
            (lambda: stats.PhotonDistribution(probs, stats.DEFAULT_N_MAX, tail), 2000, 1e6),
        "stats.poisson_vector_us":
            (lambda: stats.poisson_vector(0.1, stats.DEFAULT_N_MAX), 2000, 1e6),
        "losses.output_distribution_us.m4": (lambda: losses.output_distribution(m4), 500, 1e6),
        "losses.output_distribution_us.m4_dark":
            (lambda: losses.output_distribution(m4.replace(r_dark=5e6)), 500, 1e6),
        "losses.output_distribution_us.m10_dark":
            (lambda: losses.output_distribution(MC_CONFIGS["m10"]), 200, 1e6),
        "losses.p1_snr_curve_us_per_point":
            (lambda: losses.p1_snr_curve(m4, grid), 200, 1e6 / len(grid)),
        "optimize.optimize_mu_ms": (lambda: optimize.optimize_mu(template), 10, 1e3),
        "optimize.max_p1_with_snr_floor_ms":
            (lambda: optimize.max_p1_with_snr_floor(template, 20.0), 10, 1e3),
        "sweeps.record_for_us": (lambda: sweeps.record_for(m4), 500, 1e6),
    }
    for metric, (fn, calls, unit) in timed.items():
        with tracer.span("probe." + metric):
            out[metric] = unit * per_call(fn, calls, repeats)
    for fig_id, figure in (("fig2", sweeps.figure2), ("fig5", sweeps.figure5)):
        with tracer.span(f"probe.optimize.chain_calls.{fig_id}"):
            out[f"optimize.chain_calls.{fig_id}"] = count_chain_calls(figure)
    with tracer.span("probe.sweeps.to_csv_ms.fig3"):
        table = sweeps.figure3()
        out["sweeps.to_csv_ms.fig3"] = 1e3 * per_call(table.to_csv, 1, max(repeats, 3))
    return out


def probe_montecarlo(tracer: Tracer, seed: int, repeats: int, shrink: int) -> dict:
    out = {}
    for label, cfg in MC_CONFIGS.items():
        tables = build_tables(cfg)
        windows = cfg.n_windows
        slots = slots_per_trial(windows)
        chunk = max(1, montecarlo._CHUNK_WORD_TARGET // slots // shrink)
        generate, kernel = [], []
        with tracer.span(f"probe.montecarlo.chunk.{label}"):
            for _ in range(repeats):
                rng = philox_at_trial(seed, 0, windows)
                counts = np.zeros(PAIR_COUNT_CAP + 1, dtype=np.int64)
                start = time.perf_counter()
                uniforms = rng.random((chunk, slots))
                drawn = time.perf_counter()
                _numpy_backend.run_chunk(uniforms, tables, counts)
                generate.append(drawn - start)
                kernel.append(time.perf_counter() - drawn)
            tracemalloc.start()
            try:
                _numpy_backend.run_chunk(uniforms, tables, counts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del uniforms
        needed = words_needed_per_trial(cfg)
        out[f"montecarlo.generate_ns_per_trial.{label}"] = (
            1e9 * statistics.median(generate) / chunk)
        out[f"montecarlo.kernel_ns_per_trial.{label}"] = 1e9 * statistics.median(kernel) / chunk
        out[f"montecarlo.kernel_peak_mb.{label}"] = peak / 2**20
        out[f"montecarlo.words_drawn_per_trial.{label}"] = slots
        out[f"montecarlo.words_needed_per_trial.{label}"] = needed
        out[f"montecarlo.word_use_ratio.{label}"] = needed / slots

        trials = SIMULATE_TRIALS[label] // shrink
        with tracer.span(f"probe.montecarlo.simulate.{label}"):
            seconds = per_call(lambda: montecarlo.simulate(cfg, McConfig(trials, seed)), 1, repeats)
        out[f"montecarlo.simulate_ns_per_trial.{label}"] = 1e9 * seconds / trials

    def sharded(shards: int) -> float:
        mc = McConfig(SHARD_TRIALS // shrink, seed, shards=shards)
        return per_call(lambda: montecarlo.simulate(SHARD_CONFIG, mc), 1, repeats)

    with tracer.span("probe.montecarlo.shard_scaling.m8"):
        out["montecarlo.shard_scaling.m8"] = sharded(1) / sharded(2)

    cfg = MC_CONFIGS["m4"]
    mc = McConfig(SIMULATE_TRIALS["m4"] // shrink, seed)
    hist = montecarlo.simulate(cfg, mc)
    dist = losses.output_distribution(cfg)
    half = hist.counts // 2
    rest = hist.counts - half
    for metric, fn, calls in (
        ("montecarlo.build_tables_us", lambda: build_tables(cfg), 50),
        ("montecarlo.reduce_us", lambda: McHistogram(half + rest, mc.trials, cfg, mc), 500),
        ("montecarlo.compare_us", lambda: montecarlo.compare(dist, hist), 200),
    ):
        with tracer.span("probe." + metric):
            out[metric] = 1e6 * per_call(fn, calls, repeats)
    return out


def probe_all(tracer: Tracer, seed: int, scale: str) -> dict:
    """Every per-layer metric except cli.import_ms, which needs fresh interpreters."""
    repeats, shrink = (3, 1) if scale == "full" else (1, 16)
    out = probe_analytic(tracer, repeats)
    out.update(probe_montecarlo(tracer, seed, repeats, shrink))
    return out
