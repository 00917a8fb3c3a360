"""Workload names, reasons and first configurations, in the standard library only.

The set-up probe imports this module before it starts its clock, so nothing
here may import numpy or photonmux.
"""

DEFAULT_SEED = 42

WORKLOADS = {
    "figures": (
        "figure2()..figure5() plus to_csv(), the payload of `photonmux figure`: "
        "analytic only, so config, stats, losses, optimize and sweeps do all the work"
    ),
    "oracle_grid": (
        "the criterion-7 agreement grid, 19 configs x 1e6 trials at m <= 4: "
        "the Monte Carlo kernel scan and its chunk-sized gather do the work"
    ),
    "deep_mux": (
        "m in {6, 8, 10} on 2 shards: each trial draws 196-3076 Philox words but "
        "needs 0.3-30% of them, so stream generation and the thread pool dominate"
    ),
}

# Keyword arguments of SourceConfig for the first config of each workload;
# set-up time is measured on it.
FIRST_CONFIG = {
    "figures": {"m": 0, "mu": 1e-4},
    "oracle_grid": {"m": 0, "mu": 0.05, "e_h": 0.85, "e_s": 0.9, "e_sw_db": 0.5},
    "deep_mux": {"m": 6, "mu": 0.5, "e_h": 0.85, "e_s": 0.9, "e_sw_db": 1.0},
}

SHARDS = {"figures": 1, "oracle_grid": 1, "deep_mux": 2}
