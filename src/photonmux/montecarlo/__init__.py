"""Independent event-level Monte Carlo simulation of the source.

Every trial draws pair counts per detection window, detects each window's
idlers with the heralding transmission, fires dark counts, routes the first
triggered window (or the final window as bypass) to the output and thins the
routed photons through the signal branch.  The histogram over surviving
counts is the brute-force oracle for every analytic distribution.

Two interchangeable kernels exist.  The C kernel (``_ckernel.c``) is built
with the system C compiler on the first simulation and cached; it computes
from its counter each Philox block whose words can decide a trial's
outcome, and skips the others.  The vectorized numpy
backend is the fallback when the kernel cannot be built, and the reference
it is checked against (``backend=`` selects either).  Both read the
identical Philox stream, so their histograms are bit-identical.  The
numpy backend's module is imported only when it runs, so a run on the C
kernel never loads it.

The numpy backend scans a chunk of stream words pre-drawn in order, unless
the sampling tables predict that its scan reads only a small share of each
trial's words, as in deep multiplexers with a bright pump; it then computes
just the Philox blocks that hold the words it reads, by counter.  Both
sources yield the same words, so the choice never changes a histogram.

Every trial owns a fixed span of the stream, so the trials split into
independent chunks whose integer counts add in any order.  ``simulate``
runs one drain loop per worker, by default one per CPU the process may run
on and never more: the calling thread runs the first loop itself, and each
other loop runs on a thread of its own.  Each loop takes the next chunk
from one shared iterator and adds its counts into the loop's own array, and
the arrays are summed at the end; which loop scans a chunk never changes a
histogram either.  A C kernel chunk holds no stream words, so its size is
set by the trials alone: 1/``_CHUNKS_PER_LOOP`` of one loop's share.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import SourceConfig, _check_int
from ..stats import DEFAULT_N_MAX, PhotonDistribution
from . import _ckernel
from ._tables import PAIR_COUNT_CAP, build_tables, slots_per_trial

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
# Stream words of one chunk of the numpy backend's pre-drawn source, the
# unit a drain loop takes at a time.  On a 2-vCPU x86-64 host, two workers
# ran the criterion-7 grid about as fast with 2^19-word chunks as with
# 2^21, at half the peak memory (62 against 125 MB); 2^18 saved 11 MB more
# but ran slower.  Chunks this fine keep the loops' shares even: one chunk
# per worker ran that grid 14% slower, because the threads finished
# unevenly.
_TASK_WORD_TARGET = 1 << 19
# C kernel chunks per drain loop.  A C chunk holds no stream words, so only
# the cost of taking one (about 2 us on a 2-vCPU x86-64 host) and the
# evenness of the loops' shares size it: with 16 a loop, the loops finish
# within about one chunk, 1/16 of a share, of each other.
_CHUNKS_PER_LOOP = 16
# Deepest multiplexer whose trial's stream words still fit in the target.
MAX_M = max(m for m in range(64) if slots_per_trial(1 << m) <= _CHUNK_WORD_TARGET)


def available_backends() -> tuple:
    """The backends that can run here, building the C kernel on the first call."""
    return BACKENDS if _ckernel.load()[0] else ("numpy",)


def backend_choice(backend: Optional[str] = None) -> tuple:
    """(name, reason): the backend ``simulate`` runs for ``backend``, and why.

    ``None`` picks the C kernel, else numpy when the kernel cannot be built;
    a value outside BACKENDS raises ``ValueError``.  Raises ``RuntimeError``
    when the C kernel is asked for but cannot be built, with the build error
    as the reason.
    """
    origin = f"backend {backend!r} requested"
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
    """Backend that ``simulate`` runs when none is given."""
    return backend_choice()[0]


@dataclass(frozen=True)
class McConfig:
    """Simulation size and reproducibility contract.

    The histogram depends only on (trials, seed) and the source
    configuration.  ``shards`` caps the drain loops that run the trial
    chunks, which never outnumber the CPUs the process may run on, so
    ``None`` means one per CPU.  The calling thread runs one loop and each
    other loop a thread of its own, so ``shards=1`` starts no thread.  It
    never changes the result.  ``trials``, ``seed`` and ``shards`` are
    stored as ints, so an integral real such as ``2.0`` runs as ``2`` on
    every backend.
    """

    trials: int
    seed: int = 0
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _check_int(self.trials, "trials", 1, MAX_TRIALS))
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0, (1 << 64) - 1))
        if self.shards is not None:
            # More loops than trials never start, as each takes whole trials.
            object.__setattr__(self, "shards", _check_int(self.shards, "shards", 1, MAX_TRIALS))


@dataclass(frozen=True)
class McHistogram:
    """Outcome counts of one simulation run: ``counts[k]`` trials ended with k photons."""

    counts: np.ndarray
    trials: int
    source: SourceConfig
    mc: McConfig
    backend: str = ""

    def __post_init__(self) -> None:
        counts = np.array(self.counts)
        if counts.ndim != 1:
            raise ValueError(f"histogram counts must be one-dimensional, got shape {counts.shape}")
        if counts.dtype.kind != "i":
            # A cast to int64 would truncate a fraction, parse a string and
            # overflow beyond 2**63, so each entry, as given, is checked.
            entries = np.array(self.counts, dtype=object).tolist()
            counts = np.array([_check_int(c, f"histogram count at k={k}", 0, MAX_TRIALS)
                               for k, c in enumerate(entries)], dtype=np.int64)
        counts = counts.astype(np.int64, copy=False)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if (counts < 0).any():
            k = int(np.argmax(counts < 0))
            raise ValueError(f"histogram counts must be >= 0, got {int(counts[k])} at k={k}")
        if self.trials != self.mc.trials:
            raise ValueError(f"histogram trials {self.trials!r} != mc.trials {self.mc.trials}")
        # A count above the trials would let the int64 sum wrap round to them.
        if (counts > self.trials).any() or int(counts.sum()) != self.trials:
            raise ValueError("histogram counts must sum to the trial count")

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


def _drain(runs: list, spans) -> None:
    """Run every (start, stop) chunk of the iterator ``spans``, one drain
    loop per entry of ``runs``: the first on the calling thread, each other
    on a thread of its own.

    Each loop takes the next chunk under a lock and passes it to its own
    ``run``.  Once a chunk raises, every loop stops before taking another,
    and the first error is raised here after all the loops have ended.
    """
    lock = threading.Lock()
    errors = []

    def loop(run) -> None:
        while not errors:
            with lock:
                span = next(spans, None)
            if span is None:
                return
            try:
                run(*span)
            except BaseException as exc:
                errors.append(exc)

    threads = [threading.Thread(target=loop, args=(run,)) for run in runs[1:]]
    for thread in threads:
        thread.start()
    try:
        loop(runs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def simulate(cfg: SourceConfig, mc: McConfig, backend: Optional[str] = None) -> McHistogram:
    """Run the event-level simulation.

    Per trial: (1) pair count per window ~ Poisson(mu); (2) the window
    heralds with probability 1 - (1-e_h)^pairs, the compound chance that at
    least one of its idlers is detected; (3) a dark count fires per window
    with probability P_dark; (4) the first window with any trigger is routed
    to the output, or the final window if none triggered; (5) each photon of
    the routed window survives with the end-to-end signal transmission;
    (6) the surviving count is recorded.

    The trials are split into chunks.  Up to ``mc.shards`` drain loops, and
    never more than the CPUs the process may run on, take them one at a
    time from a shared iterator, each adding into counts of its own, which
    are summed at the end.  The calling thread runs the first loop, and each
    other loop a thread of its own.  On the C kernel a chunk is
    1/``_CHUNKS_PER_LOOP`` of one loop's share of the trials.  On the numpy
    pre-drawn source it holds at most ``_TASK_WORD_TARGET`` stream words and
    the running chunks together at most ``_CHUNK_WORD_TARGET``; on the numpy
    counter source a chunk is one batch of ``_numpy_backend._COUNTER_BATCH``
    trials.  The first error a chunk raises stops every loop at its next
    chunk and is raised here.

    Deterministic for a fixed (cfg, trials, seed): worker count, chunking and
    backend choice never alter the histogram.  Raises ``ValueError`` when
    m > MAX_M, where a single trial would outgrow a chunk, and, before any
    chunk runs, when the expected scanned windows, ``trials (1 - s^W) /
    (1 - s)`` with ``s`` the chance that a window stays silent, exceed
    ``MAX_TRIALS``: the work of ``MAX_TRIALS`` trials of one window each.
    """
    if cfg.m > MAX_M:
        raise ValueError(f"m={cfg.m} exceeds the Monte Carlo limit m <= {MAX_M}, "
                         "beyond which one trial's stream words outgrow a chunk")
    chosen = backend_choice(backend)[0]
    tables = build_tables(cfg)
    silent, w = tables.silent_probability(), tables.n_windows
    scanned = mc.trials * (w if silent >= 1.0 else (1.0 - silent ** w) / (1.0 - silent))
    if scanned > MAX_TRIALS:
        raise ValueError(f"the run would scan about {scanned:.3g} windows, more than the limit "
                         f"of {MAX_TRIALS} (2^40, MAX_TRIALS trials of one window each)")
    slots = slots_per_trial(w)
    # Running chunks of one trial each must still fit in the word target,
    # which leaves m = MAX_M one worker.
    cpus = _available_cpus()
    workers = min(mc.shards or cpus, cpus, _CHUNK_WORD_TARGET // slots)
    share = -(-mc.trials // workers)
    if chosen == "c":
        bind, chunk = _ckernel.load()[0], max(1, share // _CHUNKS_PER_LOOP)
    else:
        from . import _numpy_backend

        if _numpy_backend.counter_source_pays(tables):
            bind, chunk = _numpy_backend.bind_counter, _numpy_backend._COUNTER_BATCH
        else:
            words = min(_TASK_WORD_TARGET, _CHUNK_WORD_TARGET // workers)
            bind, chunk = _numpy_backend.bind_predrawn, max(1, min(words // slots, share))
    starts = range(0, mc.trials, chunk)
    totals = [np.zeros(PAIR_COUNT_CAP + 1, dtype=np.int64)
              for _ in range(min(workers, len(starts)))]
    _drain([bind(mc.seed, tables, counts) for counts in totals],
           ((lo, min(lo + chunk, mc.trials)) for lo in starts))
    counts = np.sum(totals, axis=0)

    top = int(np.nonzero(counts)[0].max())
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
    if analytic.config is not None and analytic.config != hist.source:
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
