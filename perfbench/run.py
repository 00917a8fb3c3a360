#!/usr/bin/env python3
"""photonmux benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload figures --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Workloads (the ops are generated from --seed, 42 by default):

  figures      figure2()..figure5() with default arguments, each followed by
               to_csv(), in a seed-shuffled order.  Analytic only: config,
               stats, losses, optimize and sweeps do all the work.
  oracle_grid  the criterion-7 agreement grid: 19 configs, 1e6 trials each,
               shards=1; each op runs simulate, output_distribution and
               compare.  Shallow m, so the kernel scan does the work.
  deep_mux     m in {6, 8, 10} at (mu=0.5, no dark counts) and
               (mu=0.05, r_dark=5e6), shards=2; each op runs simulate and
               compare.  Most drawn stream words go unread.

A closed loop: one caller runs the ops of a pass back to back, and passes
repeat until --seconds have elapsed (at least two passes).  Each workload
runs in one fresh process with the BLAS and OpenMP thread variables pinned
to 1; deep_mux's shards use two threads.

--trace 0 reports the end-to-end metrics: setup_s (median of eight fresh
interpreters importing photonmux and making the first output_distribution
and simulate(trials=1) of the workload's first config, half before and half
after the workload process), pass_s (median pass, checks included),
op_geomean_ms (geometric mean over ops of each op's median time) and
peak_rss_mb (maximum RSS of the workload process).  fig2_s..fig5_s,
mc_mtrials_per_s and op_failure_ratio are printed by name and unit above
the result line; they apply to some workloads only, and failed and
attempted ops are the result line's own keys.

--trace 1 runs one untraced and one traced pass plus the per-layer probes
of layers.py, and reports the per-layer metrics; spans go to
.perfbench_out/.

The correctness gate runs in every pass.  Figure CSVs must match
digests.json at every seed: exactly, or, where numpy's SIMD dispatch on
another CPU changes last bits, within 1e-9 per column.  At the default seed
the histogram digests must match too and every compare must pass; at other
seeds a compare FAIL is reported only.  On one config per pass the default
backend must match the numpy reference bit for bit and shards=2 must match
shards=1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every op passed, 1 when
any failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import DEFAULT_SEED, FIRST_CONFIG, WORKLOADS  # noqa: E402

SETUP_RUNS = 8
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Counts that must repeat exactly; the montecarlo ones are computed from the config.
COMPUTED_PREFIXES = ("montecarlo.words_", "montecarlo.word_use_ratio.")
COUNT_PREFIXES = ("optimize.chain_calls.",) + COMPUTED_PREFIXES
# Printed only: these apply to some workloads, and every end-to-end metric
# in the result line must exist on every workload.
PRINTED_UNITS = {"fig2_s": "s", "fig3_s": "s", "fig4_s": "s", "fig5_s": "s",
                 "mc_mtrials_per_s": "Mtrials/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="photonmux benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the Monte Carlo sizes for the self-test")
    parser.add_argument("--digests", default=str(HERE / "digests.json"),
                        help="recorded digests the gate checks against")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at tiny scale and check the harness")
    parser.add_argument("--child", choices=("run", "setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.selftest and args.child != "import" and args.workload is None:
        parser.error("--workload is required")
    return args


# -- child processes -------------------------------------------------------------


def child_setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import photonmux

    cfg = photonmux.SourceConfig(**FIRST_CONFIG[workload])
    photonmux.output_distribution(cfg)
    photonmux.simulate(cfg, photonmux.McConfig(trials=1, seed=seed))
    print(time.perf_counter() - start)


def child_import() -> None:
    start = time.perf_counter()
    import photonmux.cli  # noqa: F401

    print(time.perf_counter() - start)


def child_run(args) -> None:
    import workloads

    record = workloads.run_workload(args.workload, args.seed, args.seconds, args.scale,
                                    args.trace, args.digests)
    out = Path(OUT_DIR) / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    out.write_text(json.dumps(record, indent=1))
    record.pop("spans", None)
    print(json.dumps(record))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SOURCE_DATE_EPOCH", None)  # it would change the CSV metadata lines
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def spawn(args_list: list, env: dict, deadline: float) -> str:
    """Run this script as a child; returns the last line of its standard output."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args_list], env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child {args_list[:2]} exited with status {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# -- the run ---------------------------------------------------------------------------


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args, root: Path) -> int:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    # Fresh-interpreter samples, half before and half after the workload
    # process, so that one slow phase of the host does not set the median.
    probe = ["--child", "setup", *common] if args.trace == 0 else ["--child", "import"]
    samples = [float(spawn(probe, env, deadline)) for _ in range(SETUP_RUNS // 2)]
    record = json.loads(spawn(["--child", "run", *common, "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--digests", args.digests],
                              env, deadline))
    samples += [float(spawn(probe, env, deadline)) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    if args.trace == 0:
        metrics = {"setup_s": statistics.median(samples)}
    else:
        metrics = {"cli.import_ms": 1e3 * statistics.median(samples)}
    metrics.update(record["metrics"])

    meta = record["meta"]
    meta["commit"] = git_commit(root)
    meta["thread_vars"] = {name: os.environ.get(name) for name in THREAD_VARS}
    meta["thread_vars_in_children"] = "1"
    print(f"photonmux benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    for key, value in meta.items():
        print(f"meta {key} = {value}")
    gate = "strict (default seed)" if record["gate_strict"] else \
        "figure digests and identity only (non-default seed)"
    print(f"gate {gate}; {record['passes']} pass(es); "
          f"{record['compare_fails_reported']} compare FAIL(s) reported, not counted")
    for op in record["ops"]:
        print(f"op {op['name']}: {'ok' if op['ok'] else 'FAILED'} "
              f"{fmt(op['seconds'])} s; {op['detail']}")
    for failure in record["failures"]:
        print(f"FAILURE pass {failure['pass']} {failure['name']}: {failure['detail']}")

    attempted, failed = record["attempted"], record["failed"]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["end_to_end"] if args.trace == 0 else declared["per_layer"]
    units = {m["name"]: m["unit"] for m in wanted} | PRINTED_UNITS
    for name, value in metrics.items():
        unit = units.get(name, "")
        note = " (computed)" if name.startswith(COMPUTED_PREFIXES) else ""
        print(f"metric {name} = {fmt(value)} {unit}{note}")
    print(f"metric op_failure_ratio = {failed / attempted:.6g} failed ops/attempted ops "
          f"({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- self-test ---------------------------------------------------------------------------


def invoke(argv: list, root: Path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=DEADLINE_S + 10)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        return proc.returncode, json.loads(last)
    except json.JSONDecodeError:
        return proc.returncode, None


def selftest(root: Path) -> int:
    """Every workload end to end at tiny scale, the metric contract, repeatable
    counts across two traced runs, and a tampered digest that must fail."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    counts = []
    for workload in sorted(WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = invoke(["--workload", workload, "--seconds", "1", "--scale", "tiny",
                                   "--trace", str(trace)], root)
            where = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            names = {m["name"]: m["unit"] for m in declared[key]}
            got = result["metrics"]
            if set(got) != set(names):
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(names))} "
                                "missing or undeclared")
            for name, value in got.items():
                if not METRIC_NAME.fullmatch(name) or not value.get("unit") \
                        or value["unit"] != names.get(name):
                    problems.append(f"{where}: bad metric name or unit {name}: {value}")
            if trace:
                counts.append({k: v["value"] for k, v in got.items()
                               if k.startswith(COUNT_PREFIXES)})
    if len(counts) >= 2 and any(c != counts[0] for c in counts[1:]):
        problems.append(f"counts differ between traced runs: {counts}")

    digests = json.loads(Path(HERE / "digests.json").read_text())
    first = next(iter(digests["tiny"]["oracle_grid"]))
    digests["tiny"]["oracle_grid"][first] = "0" * 64
    tampered = root / OUT_DIR / "tampered-digests.json"
    tampered.write_text(json.dumps(digests))
    code, result = invoke(["--workload", "oracle_grid", "--seconds", "1", "--scale", "tiny",
                           "--digests", str(tampered)], root)
    if code == 0 or result is None or result["failed"] == 0:
        problems.append(f"tampered digest not caught: exit {code}, result {result}")

    for problem in problems:
        print("SELFTEST FAIL", problem)
    print(f"selftest: {'FAIL' if problems else 'PASS'} "
          f"({len(WORKLOADS)} workloads, {len(counts)} traced runs, tampered-digest case)")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child == "setup":
        child_setup(args.workload, args.seed)
        return 0
    if args.child == "import":
        child_import()
        return 0
    if args.child == "run":
        child_run(args)
        return 0
    root = Path.cwd()
    if not (root / "src" / "photonmux" / "__init__.py").is_file():
        print("perfbench: src/photonmux not found; run from the repository root",
              file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    if args.selftest:
        return selftest(root)
    try:
        return run(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
