#!/usr/bin/env python3
"""Benchmark the compiled simulator kernel against the numpy fallback.

Both backends consume the same Philox stream, so besides timing them this
script asserts that their histograms are bit-identical.

Usage:
    python benchmarks/backend_bench.py [--trials 1e6] [--seed 42]
"""

import argparse
import time

import numpy as np

from photonmux import McConfig, SourceConfig, simulate
from photonmux.montecarlo import available_backends

CASES = [
    ("single window", SourceConfig(m=0, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)),
    ("four stages", SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)),
    ("four stages, dark counts", SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9,
                                              e_sw_db=0.5, r_dark=5e6)),
    ("six stages, strong pump", SourceConfig(m=6, mu=0.5, e_h=0.85, e_s=0.9, e_sw_db=1.0)),
]


def time_backend(cfg, mc, backend, repeats=3):
    best = float("inf")
    hist = None
    for _ in range(repeats):
        start = time.perf_counter()
        hist = simulate(cfg, mc, backend=backend)
        best = min(best, time.perf_counter() - start)
    return best, hist


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=float, default=1e6)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    try:
        mc = McConfig(trials=args.trials, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    backends = available_backends()
    print(f"available backends: {', '.join(backends)}")
    if "cython" not in backends:
        print("compiled kernel not built; timing the numpy backend only")

    header = f"{'case':28s} {'backend':8s} {'time [s]':>9s} {'Mtrials/s':>10s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    compared = 0
    for name, cfg in CASES:
        reference = None
        base_time = None
        for backend in ("numpy", "cython"):
            if backend not in backends:
                continue
            elapsed, hist = time_backend(cfg, mc, backend, args.repeats)
            if reference is None:
                reference = hist.counts
                base_time = elapsed
            else:
                assert np.array_equal(reference, hist.counts), "backends disagree!"
                compared += 1
            speedup = "" if elapsed == base_time else f"{base_time / elapsed:7.1f}x"
            rate = mc.trials / elapsed / 1e6
            print(f"{name:28s} {backend:8s} {elapsed:9.3f} {rate:10.2f} {speedup:>8s}")
    if compared:
        print(f"histograms bit-identical across backends: OK ({compared} cases compared)")
    else:
        print("histograms bit-identical across backends: skipped, only one backend ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
