"""Independent event-level Monte Carlo simulation of the source.

Every trial draws pair counts per detection window, detects each window's
idlers with the heralding transmission, fires dark counts, routes the first
triggered window (or the final window as bypass) to the output and thins the
routed photons through the signal branch.  The histogram over surviving
counts is the brute-force oracle for every analytic distribution.

Two interchangeable kernels exist.  The C kernel (``_ckernel.c``) is built
with the system C compiler on the first simulation and cached; it computes
each Philox block a trial reads from its counter.  The vectorized numpy
backend is the fallback when the kernel cannot be built, and the reference
it is checked against (the PHOTONMUX_BACKEND environment variable forces
either).  Both read the identical Philox stream, so their histograms are
bit-identical.

The numpy backend scans a chunk of stream words pre-drawn in order, unless
the sampling tables predict that its scan reads only a small share of each
trial's words, as in deep multiplexers with a bright pump; it then computes
just the Philox blocks that hold the words it reads, by counter.  Both
sources yield the same words, so the choice never changes a histogram.

Every trial owns a fixed span of the stream, so the trials split into
independent chunks whose integer counts add in any order.  ``simulate``
runs the chunks as tasks on one thread pool, by default one thread per CPU
the process may run on; which thread scans a chunk never changes a
histogram either.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import SourceConfig
from ..stats import DEFAULT_N_MAX, PhotonDistribution
from . import _ckernel, _numpy_backend
from ._tables import PAIR_COUNT_CAP, build_tables, philox_at_trial, slots_per_trial

__all__ = [
    "McConfig",
    "McHistogram",
    "CompareReport",
    "simulate",
    "compare",
    "BACKENDS",
    "available_backends",
    "backend_choice",
    "default_backend",
]

BACKENDS = ("c", "numpy")

MAX_TRIALS = 1 << 40
# The agreement gate of compare: the total-variation limit is TV_FACTOR
# sqrt(n_max / trials), every merged-bin |z| must stay within Z_LIMIT, and
# the upper bins merge into one tail group of at least MIN_EXPECTED counts.
Z_LIMIT = 4.0
TV_FACTOR = 3.0
MIN_EXPECTED = 10.0
# Stream words of all chunks in flight, summed over the worker threads.
_CHUNK_WORD_TARGET = 1 << 22
# Stream words of one chunk.  On a 2-vCPU x86-64 host, two workers ran the
# criterion-7 grid about as fast with 2^19-word chunks as with 2^21, at
# half the peak memory (62 against 125 MB); 2^18 saved 11 MB more but ran
# slower.
_TASK_WORD_TARGET = 1 << 19
# Deepest multiplexer whose trial's stream words still fit in the target.
MAX_M = max(m for m in range(64) if slots_per_trial(1 << m) <= _CHUNK_WORD_TARGET)


def available_backends() -> tuple:
    """The backends that can run here, building the C kernel on the first call."""
    return BACKENDS if _ckernel.load()[0] else ("numpy",)


def backend_choice(backend: Optional[str] = None) -> tuple:
    """(name, reason): the backend ``simulate`` runs for ``backend``, and why.

    ``None`` picks the backend PHOTONMUX_BACKEND names, else the C kernel,
    else numpy when the kernel cannot be built; an empty PHOTONMUX_BACKEND
    counts as unset, and any other value outside BACKENDS raises
    ``ValueError``.  Raises ``RuntimeError`` when the C kernel is asked for
    but cannot be built, with the build error as the reason.
    """
    origin = f"backend {backend!r} requested"
    if backend is None:
        forced = os.environ.get("PHOTONMUX_BACKEND", "").lower()
        if forced not in ("", *BACKENDS):
            raise ValueError(f"unknown PHOTONMUX_BACKEND={forced!r}, expected one of {BACKENDS}")
        if forced:
            backend, origin = forced, f"PHOTONMUX_BACKEND={forced}"
    if backend not in (None, *BACKENDS):
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    if backend == "numpy":
        return "numpy", origin
    run, detail = _ckernel.load()
    if run is None:
        if backend is None:
            return "numpy", f"fallback, the C kernel is unavailable: {detail}"
        raise RuntimeError(f"{origin}, but the C kernel is unavailable: {detail}")
    return "c", f"C kernel {detail}" if backend is None else f"{origin}; C kernel {detail}"


def default_backend() -> str:
    """Backend that ``simulate`` runs when none is given, honoring PHOTONMUX_BACKEND."""
    return backend_choice()[0]


@dataclass(frozen=True)
class McConfig:
    """Simulation size and reproducibility contract.

    The histogram depends only on (trials, seed) and the source
    configuration.  ``shards`` caps the worker threads that run the trial
    chunks, ``None`` meaning every CPU the process may run on; it never
    changes the result.
    """

    trials: int
    seed: int = 0
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        trials = self.trials
        if not (isinstance(trials, numbers.Integral)
                or (isinstance(trials, numbers.Real) and float(trials).is_integer())):
            raise ValueError(f"trials must be an integer, got {trials!r}")
        object.__setattr__(self, "trials", int(trials))
        if not 1 <= self.trials:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials={self.trials} exceeds the supported maximum 2**40")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        shards = self.shards
        if shards is not None:
            if not isinstance(shards, numbers.Integral) or shards < 1:
                raise ValueError(f"shards must be None or an integer >= 1, got {shards!r}")
            object.__setattr__(self, "shards", int(shards))


@dataclass(frozen=True)
class McHistogram:
    """Outcome counts of one simulation run."""

    counts: np.ndarray
    trials: int
    source: SourceConfig
    mc: McConfig
    backend: str = ""

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if int(counts.sum()) != self.trials:
            raise ValueError("histogram counts must sum to the trial count")

    @property
    def n_max(self) -> int:
        return self.counts.size - 1

    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials

    def rows(self):
        """(k, count, frequency) triples for tabular serialization."""
        freq = self.frequencies()
        return [(int(k), int(self.counts[k]), float(freq[k])) for k in range(self.counts.size)]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate_range(tables, seed: int, run_counter, start: int, stop: int) -> np.ndarray:
    """Counts of trials [start, stop), one task of the pool.

    ``run_counter`` computes the trials' words by counter; ``None`` scans
    words pre-drawn in order with the numpy backend.
    """
    counts = np.zeros(PAIR_COUNT_CAP + 1, dtype=np.int64)
    if run_counter is not None:
        run_counter(seed, start, stop, tables, counts)
        return counts
    w = tables.n_windows
    uniforms = philox_at_trial(seed, start, w).random((stop - start, slots_per_trial(w)))
    _numpy_backend.run_chunk(uniforms, tables, counts)
    return counts


def simulate(cfg: SourceConfig, mc: McConfig, backend: Optional[str] = None) -> McHistogram:
    """Run the event-level simulation.

    Per trial: (1) pair count per window ~ Poisson(mu); (2) the window
    heralds with probability 1 - (1-e_h)^pairs, the compound chance that at
    least one of its idlers is detected; (3) a dark count fires per window
    with probability P_dark; (4) the first window with any trigger is routed
    to the output, or the final window if none triggered; (5) each photon of
    the routed window survives with the end-to-end signal transmission;
    (6) the surviving count is recorded.

    The trials are split into chunks that run as tasks on one pool of up to
    ``mc.shards`` threads, every available CPU when ``None``.  A chunk holds
    at most ``_TASK_WORD_TARGET`` stream words and the running chunks
    together at most ``_CHUNK_WORD_TARGET``, counting every word of a trial
    even where the C kernel computes only those it reads; on the numpy
    counter source a task is one batch of ``_numpy_backend._COUNTER_BATCH``
    trials.

    Deterministic for a fixed (cfg, trials, seed): worker count, chunking and
    backend choice never alter the histogram.  Raises ``ValueError`` when
    m > MAX_M, where a single trial would outgrow a chunk.
    """
    if cfg.m > MAX_M:
        raise ValueError(f"m={cfg.m} exceeds the Monte Carlo limit m <= {MAX_M}, "
                         "beyond which one trial's stream words outgrow a chunk")
    chosen = backend_choice(backend)[0]
    tables = build_tables(cfg)
    slots = slots_per_trial(tables.n_windows)
    # Running chunks of one trial each must still fit in the word target,
    # which leaves m = MAX_M one worker.
    workers = min(mc.shards or _available_cpus(), _CHUNK_WORD_TARGET // slots)
    run_counter = _ckernel.load()[0] if chosen == "c" else None
    if run_counter is None and _numpy_backend.counter_source_pays(tables):
        run_counter, chunk = _numpy_backend.run_counter, _numpy_backend._COUNTER_BATCH
    else:
        words = min(_TASK_WORD_TARGET, _CHUNK_WORD_TARGET // workers)
        chunk = max(1, min(words // slots, -(-mc.trials // workers)))
    starts = range(0, mc.trials, chunk)
    workers = min(workers, len(starts))

    counts = np.zeros(PAIR_COUNT_CAP + 1, dtype=np.int64)
    # Tasks are submitted two per worker ahead of the results read, so the
    # queue stays short however many chunks a run has.
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for lo in starts:
            pending.append(pool.submit(_simulate_range, tables, mc.seed, run_counter, lo,
                                       min(lo + chunk, mc.trials)))
            if len(pending) > 2 * workers:
                counts += pending.popleft().result()
        for future in pending:
            counts += future.result()

    top = int(np.nonzero(counts)[0].max()) if counts.any() else 0
    trimmed = counts[: max(top + 1, DEFAULT_N_MAX + 1)]
    return McHistogram(trimmed, mc.trials, cfg, mc, chosen)


@dataclass(frozen=True)
class CompareReport:
    """Analytic-versus-sampled agreement summary.

    Per-bin z-scores are computed after merging the sparse upper bins into
    one tail group (expected count at least ``MIN_EXPECTED``), the usual
    guard against meaningless normal approximations on near-empty bins.
    """

    tv_distance: float
    tv_limit: float
    max_abs_z: float
    z_limit: float
    z_scores: np.ndarray
    tail_start: int
    passed: bool

    @property
    def tv_vacuous(self) -> bool:
        """True when the TV limit is at least 1, which no distance exceeds."""
        return self.tv_limit >= 1.0

    def lines(self) -> list:
        state = "PASS" if self.passed else "FAIL"
        lines = [f"tv_distance = {self.tv_distance:.6e} (limit {self.tv_limit:.6e})"]
        if self.tv_vacuous:
            lines.append("tv gate cannot fail: its limit is >= 1, the largest possible "
                         "distance, at this trial count; only the z test can fail")
        return lines + [
            f"max |z| = {self.max_abs_z:.3f} over {self.z_scores.size} bins "
            f"(tail merged from k={self.tail_start}, limit {self.z_limit})",
            f"agreement: {state}",
        ]


def compare(analytic: PhotonDistribution, hist: McHistogram) -> CompareReport:
    """Check a sampled histogram against an analytic distribution.

    Passes when the total-variation distance stays below
    ``TV_FACTOR * sqrt(n_max / trials)`` and every merged-bin z-score stays
    within ``Z_LIMIT``.
    """
    cfg = analytic.meta.get("config")
    if cfg is not None and cfg != hist.source:
        raise ValueError("analytic distribution and histogram were computed for different configs")

    trials = hist.trials
    size = max(analytic.n_max + 1, hist.counts.size)
    probs = np.zeros(size)
    probs[: analytic.n_max + 1] = analytic.probs
    counts = np.zeros(size, dtype=np.int64)
    counts[: hist.counts.size] = hist.counts

    freq = counts / trials
    tv = 0.5 * (float(np.abs(freq - probs).sum()) + analytic.tail_mass)
    tv_limit = TV_FACTOR * math.sqrt(analytic.n_max / trials)

    expected = probs * trials
    tail_expected = analytic.tail_mass * trials
    # suffix[i] = expected mass in bins i and above
    suffix = np.append(np.cumsum(expected[::-1])[::-1], 0.0)
    cutoff = size
    while cutoff > 1 and suffix[cutoff] + tail_expected < MIN_EXPECTED:
        cutoff -= 1
    head_p = probs[:cutoff]
    head_c = counts[:cutoff].astype(float)
    tail_p = float(probs[cutoff:].sum()) + analytic.tail_mass
    tail_c = float(counts[cutoff:].sum())
    group_p = np.append(head_p, tail_p)
    group_c = np.append(head_c, tail_c)
    var = trials * group_p * (1.0 - group_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(var > 0, (group_c - trials * group_p) / np.sqrt(np.where(var > 0, var, 1.0)), 0.0)
    # A bin that the analytic model forbids but the sampler populated is an
    # unconditional failure.
    impossible = (group_p == 0) & (group_c > 0)
    max_abs_z = math.inf if impossible.any() else float(np.abs(z).max())

    passed = tv <= tv_limit and max_abs_z <= Z_LIMIT
    return CompareReport(
        tv_distance=tv,
        tv_limit=tv_limit,
        max_abs_z=max_abs_z,
        z_limit=Z_LIMIT,
        z_scores=z,
        tail_start=cutoff,
        passed=passed,
    )
