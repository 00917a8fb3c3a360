"""Workload ops, the correctness gate and the timed passes.

Ops call photonmux through module attributes (``sweeps.figure2``,
``montecarlo.simulate``, ``losses.output_distribution``) so that the traced
run can wrap those attributes with spans without touching the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import photonmux
from photonmux import losses, montecarlo, sweeps
from photonmux.config import SourceConfig
from photonmux.montecarlo import McConfig

from spec import DEFAULT_SEED, FIRST_CONFIG, SHARDS

HEADLINE = {"e_h": 0.85, "e_s": 0.9}

# Trials per config.  oracle_grid keeps the criterion-7 size: at m = 0 every
# op is a single kernel chunk of 1e6 trials, so the chunk-sized
# survival_cdf gather (about 1.1 GB) happens in every pass.  deep_mux runs
# fewer trials at larger m, where a trial draws 3 * 2**m + 1 words or more.
# "tiny" exists for the self-test only; no metric is claimed at that scale.
SCALES = {
    "full": {"oracle": 1_000_000, "deep": {6: 1 << 17, 8: 1 << 16, 10: 1 << 14},
             "identity": 1 << 18},
    "tiny": {"oracle": 1 << 14, "deep": {6: 1 << 11, 8: 1 << 10, 10: 1 << 8},
             "identity": 1 << 12},
}

# Every run times each op at least twice, so that one oracle_grid run
# (about 22 s a pass) spans more than one slow phase of a shared host.
MIN_PASSES = 2

# Relative tolerance of the column fingerprints that stand in for the exact
# CSV digest when numpy's SIMD dispatch changes the last bits of a table.
TABLE_RTOL = 1e-9


def first_config(workload: str) -> SourceConfig:
    return SourceConfig(**FIRST_CONFIG[workload])


def config_name(cfg: SourceConfig) -> str:
    name = f"m{cfg.m}_mu{cfg.mu:g}_il{cfg.e_sw_db:g}"
    return name + "_dark" if cfg.r_dark else name


def oracle_grid_configs() -> list:
    configs = [SourceConfig(m=m, mu=mu, e_sw_db=il, **HEADLINE)
               for m in (0, 2, 4) for mu in (0.05, 0.1, 0.5) for il in (0.5, 1.0)]
    configs.append(SourceConfig(m=4, mu=0.1, e_sw_db=0.5, r_dark=5e6, **HEADLINE))
    return configs


def deep_mux_configs() -> list:
    return [SourceConfig(m=m, mu=mu, e_sw_db=1.0, r_dark=r_dark, **HEADLINE)
            for m in (6, 8, 10) for mu, r_dark in ((0.5, 0.0), (0.05, 5e6))]


# -- digests and the gate ------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def histogram_digest(counts: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


def table_fingerprint(csv: str) -> dict:
    """Header digest plus, per column, value classes and weighted sums."""
    lines = csv.splitlines()
    n_head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = [line.split(",") for line in lines[n_head + 1:]]
    weights = np.arange(len(rows)) % 13 + 1.0
    columns = {}
    for j, name in enumerate(lines[n_head].split(",")):
        cells = [row[j] for row in rows]
        blank = np.array([cell == "" for cell in cells])
        values = np.array([float(cell) if cell else 0.0 for cell in cells])
        finite = np.isfinite(values) & ~blank
        columns[name] = {
            "classes": [int(blank.sum()), int(np.isnan(values).sum()),
                        int((values == np.inf).sum()), int((values == -np.inf).sum())],
            "sum": float(weights[finite] @ values[finite]),
            "scale": float(weights[finite] @ np.abs(values[finite])),
        }
    return {"head": sha256("\n".join(lines[:n_head + 1])), "rows": len(rows), "columns": columns}


class Gate:
    """Checks op outputs against the digests recorded at the seed commit.

    Figure tables do not depend on the seed and are always checked.
    Histogram digests and compare verdicts count only at the default seed;
    at other seeds a compare FAIL is reported but is no failure, because the
    4-sigma gate fails by chance every few dozen passes.
    """

    def __init__(self, expected: dict, strict: bool):
        self.expected = expected
        self.strict = strict
        self.compare_fails_reported = 0

    def check_table(self, name: str, csv: str):
        ref = self.expected[name]
        if sha256(csv) == ref["sha256"]:
            return True, "csv digest exact"
        got = table_fingerprint(csv)
        want = ref["fingerprint"]
        if got["head"] != want["head"] or got["rows"] != want["rows"]:
            return False, "csv digest differs; header or row count differs"
        off = [col for col, w in want["columns"].items()
               if col not in got["columns"]
               or got["columns"][col]["classes"] != w["classes"]
               or abs(got["columns"][col]["sum"] - w["sum"]) > TABLE_RTOL * w["scale"]]
        if off:
            return False, f"csv digest differs; columns {off} differ beyond rtol {TABLE_RTOL:g}"
        return True, f"csv digest differs in the last bits; every column within rtol {TABLE_RTOL:g}"

    def check_histogram(self, name: str, hist, report):
        notes = [f"tv/limit {report.tv_distance / report.tv_limit:.3f}",
                 f"max|z| {report.max_abs_z:.2f}"]
        ok = True
        if self.strict:
            if histogram_digest(hist.counts) != self.expected[name]:
                ok = False
                notes.append("histogram digest MISMATCH")
            else:
                notes.append("histogram digest exact")
        if not report.passed:
            if self.strict:
                ok = False
                notes.append("compare FAIL")
            else:
                self.compare_fails_reported += 1
                notes.append("compare FAIL at a non-default seed (reported, not counted)")
        return ok, ", ".join(notes)


# -- ops -----------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    detail: str
    sim_seconds: float = 0.0
    trials: int = 0
    timed: bool = True  # False for the identity check, which is no workload op


@dataclass(frozen=True)
class FigureOp:
    name: str  # "fig2" .. "fig5"

    def run(self, tracer, gate: Gate) -> OpResult:
        start = time.perf_counter()
        table = getattr(sweeps, "figure" + self.name[3:])()
        with tracer.span("sweeps.to_csv"):
            csv = table.to_csv()
        seconds = time.perf_counter() - start
        ok, detail = gate.check_table(self.name, csv)
        return OpResult(self.name, seconds, ok, detail)


@dataclass(frozen=True)
class McOp:
    cfg: SourceConfig
    mc: McConfig

    @property
    def name(self) -> str:
        return config_name(self.cfg)

    def run(self, tracer, gate: Gate) -> OpResult:
        start = time.perf_counter()
        hist = montecarlo.simulate(self.cfg, self.mc)
        simulated = time.perf_counter()
        report = montecarlo.compare(losses.output_distribution(self.cfg), hist)
        seconds = time.perf_counter() - start
        ok, detail = gate.check_histogram(self.name, hist, report)
        return OpResult(self.name, seconds, ok, detail, simulated - start, self.mc.trials)


@dataclass(frozen=True)
class IdentityOp:
    """Default backend against the numpy reference, and shards=2 against shards=1."""

    cfg: SourceConfig
    trials: int
    seed: int

    @property
    def name(self) -> str:
        return "identity:" + config_name(self.cfg)

    def run(self, tracer, gate: Gate) -> OpResult:
        start = time.perf_counter()
        reference = montecarlo.simulate(self.cfg, McConfig(self.trials, self.seed), backend="numpy")
        default = montecarlo.simulate(self.cfg, McConfig(self.trials, self.seed))
        sharded = montecarlo.simulate(self.cfg, McConfig(self.trials, self.seed, shards=2))
        seconds = time.perf_counter() - start
        problems = []
        if not np.array_equal(default.counts, reference.counts):
            problems.append(f"{default.backend} backend differs from the numpy reference")
        if not np.array_equal(sharded.counts, default.counts):
            problems.append("shards=2 differs from shards=1")
        if default.backend == "numpy":
            backend = "numpy compared with itself (no other backend ran)"
        else:
            backend = f"{default.backend} compared with numpy"
        detail = "; ".join(problems) if problems else f"bit-identical: {backend}, shards 2 vs 1"
        return OpResult(self.name, seconds, not problems, detail, timed=False)


def build_ops(workload: str, seed: int, scale: str) -> list:
    """The ops of one pass, generated from the workload seed."""
    sizes = SCALES[scale]
    if workload == "figures":
        names = ["fig2", "fig3", "fig4", "fig5"]
        random.Random(seed).shuffle(names)
        return [FigureOp(name) for name in names]
    if workload == "oracle_grid":
        configs = oracle_grid_configs()
        ops = [McOp(cfg, McConfig(sizes["oracle"], seed)) for cfg in configs]
        return ops + [IdentityOp(configs[-1], sizes["identity"], seed)]
    if workload == "deep_mux":
        configs = deep_mux_configs()
        ops = [McOp(cfg, McConfig(sizes["deep"][cfg.m], seed, shards=SHARDS[workload]))
               for cfg in configs]
        return ops + [IdentityOp(configs[2], sizes["deep"][8] // 4, seed)]
    raise ValueError(f"unknown workload {workload!r}")


# -- passes ----------------------------------------------------------------------


class NullTracer:
    """Tracing off: spans cost one context manager and record nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


def run_pass(ops: list, tracer, gate: Gate):
    """Run every op once; returns (seconds, results).  An op that raises fails."""
    results = []
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        for op in ops:
            with tracer.span("bench.op"):
                try:
                    results.append(op.run(tracer, gate))
                except Exception:  # the pass must go on; the failure is counted
                    last = traceback.format_exc().strip().splitlines()[-1]
                    results.append(OpResult(op.name, math.nan, False, f"raised: {last}"))
    return time.perf_counter() - start, results


def warm_up(workload: str, seed: int) -> None:
    """The set-up calls, so that lazy initialisation stays out of the passes."""
    cfg = first_config(workload)
    losses.output_distribution(cfg)
    montecarlo.simulate(cfg, McConfig(trials=1, seed=seed, shards=SHARDS[workload]))


def geomean(values: list) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def summarize(passes: list) -> dict:
    """End-to-end metrics over the passes of one run, each a median over passes."""
    per_op = {}
    for _, results in passes:
        for r in results:
            if r.timed and math.isfinite(r.seconds):
                per_op.setdefault(r.name, []).append(r)
    metrics = {"pass_s": statistics.median(seconds for seconds, _ in passes)}
    if per_op:
        metrics["op_geomean_ms"] = 1e3 * geomean([statistics.median(r.seconds for r in rs)
                                                   for rs in per_op.values()])
    for name in ("fig2", "fig3", "fig4", "fig5"):
        if name in per_op:
            metrics[f"{name}_s"] = statistics.median(r.seconds for r in per_op[name])
    sim = [r for rs in per_op.values() for r in rs if r.trials]
    if sim:
        metrics["mc_mtrials_per_s"] = (sum(r.trials for r in sim)
                                       / sum(r.sim_seconds for r in sim) / 1e6)
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def backend_reason() -> str:
    forced = os.environ.get("PHOTONMUX_BACKEND")
    if forced:
        return f"PHOTONMUX_BACKEND={forced}"
    if "cython" not in montecarlo.available_backends():
        return "compiled kernel missing, numpy fallback"
    return "compiled kernel present"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, scale: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "photonmux": photonmux.__version__,
        "photonmux_path": os.path.dirname(photonmux.__file__),
        "available_backends": list(montecarlo.available_backends()),
        "backend": montecarlo.default_backend(),
        "backend_reason": backend_reason(),
        "shards": SHARDS[workload],
    }


def run_workload(workload: str, seed: int, seconds: float, scale: str, trace: int,
                 digests_path: str) -> dict:
    """Run one workload in this process and return its result record."""
    with open(digests_path) as f:
        recorded = json.load(f)
    strict = seed == recorded["seed"] == DEFAULT_SEED
    gate = Gate(recorded[scale][workload], strict)
    ops = build_ops(workload, seed, scale)
    warm_up(workload, seed)
    record = {"meta": metadata(workload, seed, scale), "gate_strict": strict}

    if trace == 0:
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(ops, NullTracer(), gate))
        metrics = summarize(passes)
        metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        import layers  # numpy-heavy probes load only for the traced run

        passes = [run_pass(ops, NullTracer(), gate)]
        tracer = layers.Tracer()
        with layers.instrument(tracer):
            passes.append(run_pass(ops, tracer, gate))
        pass_spans = len(tracer.spans)
        metrics = {
            "trace.untraced_pass_s": passes[0][0],
            "trace.traced_pass_s": passes[1][0],
            "trace.overhead_s": passes[1][0] - passes[0][0],
        }
        metrics.update(layers.self_seconds(tracer.spans[:pass_spans]))
        metrics.update(layers.probe_all(tracer, seed, scale))
        record["spans"] = tracer.export()

    record["metrics"] = metrics
    record["passes"] = len(passes)
    record["attempted"] = sum(len(results) for _, results in passes)
    record["failed"] = sum(not r.ok for _, results in passes for r in results)
    record["compare_fails_reported"] = gate.compare_fails_reported
    record["ops"] = [
        {"name": r.name, "seconds": r.seconds, "ok": r.ok, "detail": r.detail}
        for r in passes[-1][1]
    ]
    record["failures"] = [
        {"pass": i, "name": r.name, "detail": r.detail}
        for i, (_, results) in enumerate(passes) for r in results if not r.ok
    ]
    return record
