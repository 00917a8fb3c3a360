import dataclasses
import itertools
import math
import re
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
import tracemalloc

import numpy as np
import pytest

from photonmux import (
    McConfig,
    PhotonDistribution,
    SourceConfig,
    compare,
    ideal_distribution,
    montecarlo,
    output_distribution,
    simulate,
)
from photonmux.montecarlo import MAX_M, MAX_TRIALS, _ckernel, _numpy_backend, available_backends
from photonmux.montecarlo._philox import philox_doubles
from photonmux.montecarlo._tables import build_tables, philox_at_trial, slots_per_trial
from photonmux.losses import _blocks
from photonmux.stats import DEFAULT_N_MAX
from photonmux.validate import AGREEMENT_CONFIGS, check_agreement

BACKENDS = available_backends()
LOSSY = SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
DARK = SourceConfig(m=3, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6)
# Deep enough that the numpy backend computes Philox blocks by counter.
DEEP = SourceConfig(m=8, mu=0.5, e_h=0.85, e_s=0.9, e_sw_db=1.0)
DEEP_DARK = SourceConfig(m=10, mu=0.05, e_h=0.85, e_s=0.9, e_sw_db=1.0, r_dark=5e6)
# Where a group of four windows usually holds a pair, as in BRIGHT_DEEP, the
# C kernel computes each group's pair and herald blocks in one pass; else it
# computes each block alone.
BRIGHT_DEEP = SourceConfig(m=6, mu=0.5, e_h=0.85, e_s=0.9, e_sw_db=1.0)
DIM_DEEP_DARK = SourceConfig(m=8, mu=0.05, e_h=0.85, e_s=0.9, e_sw_db=1.0, r_dark=5e6)
# Skips a test only where no C compiler can build the kernel, with the
# build error as the reason.
needs_c = pytest.mark.skipif("c" not in BACKENDS, reason=_ckernel.load()[1])


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)

    def test_rejects_overflow_scale_trials(self):
        with pytest.raises(ValueError):
            McConfig(trials=1 << 41)

    def test_trials_must_be_integral(self):
        assert McConfig(trials=1e6).trials == 1_000_000
        assert isinstance(McConfig(trials=1e6).trials, int)
        for bad in (2.5, math.nan, math.inf, "10"):
            with pytest.raises(ValueError, match="trials"):
                McConfig(trials=bad)

    def test_shards_is_none_or_a_positive_integer(self):
        assert McConfig(trials=10).shards is None
        assert McConfig(trials=10, shards=np.int64(3)).shards == 3
        for bad in (2.5, "2", 0):
            with pytest.raises(ValueError, match="shards"):
                McConfig(trials=10, shards=bad)

    def test_histogram_counts_must_sum_to_the_trials(self):
        with pytest.raises(ValueError, match="^histogram counts must sum to the trial count$"):
            montecarlo.McHistogram([3, 1], 5, SourceConfig(m=0, mu=0.1), McConfig(trials=5))

    def test_histogram_rejects_counts_no_run_gives(self):
        cfg, mc = SourceConfig(mu=0.1), McConfig(trials=1)
        in_range = rf"an integer in \[0, {MAX_TRIALS}\]"
        bad = [
            # A total-variation distance cannot exceed 1, but these counts
            # would give compare one of 5.9.
            (np.array([-5, 6] + [0] * 29), 1, mc,
             r"^histogram counts must be >= 0, got -5 at k=0$"),
            (np.ones((2, 31), dtype=int), 62, McConfig(trials=62),
             r"^histogram counts must be one-dimensional, got shape \(2, 31\)$"),
            ([1, 1], 2, mc, r"^histogram trials 2 != mc.trials 1$"),
            # A cast to int64 would take the next two as counts [1, 0, ...]
            # and raise a bare OverflowError on the third.
            ([1.7, 0.3] + [0] * 29, 1, mc, rf"^histogram count at k=0 must be {in_range}, got 1\.7$"),
            (["1", "0"] + [0] * 29, 1, mc, rf"^histogram count at k=0 must be {in_range}, got '1'$"),
            ([0, 2**63 + 5] + [0] * 29, 1, mc,
             rf"^histogram count at k=1 must be {in_range}, got 9223372036854775813$"),
            # Their int64 sum wraps round to 1.
            (np.array([2**62] * 4 + [1] + [0] * 26), 1, mc,
             r"^histogram counts must sum to the trial count$"),
        ]
        for counts, trials, run, match in bad:
            with pytest.raises(ValueError, match=match):
                montecarlo.McHistogram(counts, trials, cfg, run)
        # Integral entries of any integer or real type stay valid, as do a
        # run's own histogram and one summed from two halves as a reduction
        # builds it.
        for counts in ([1.0] + [0.0] * 30, np.array([1] + [0] * 30, dtype=np.uint8)):
            hist = montecarlo.McHistogram(counts, 1, cfg, mc)
            assert hist.counts.dtype == np.int64 and hist.counts.tolist() == [1] + [0] * 30
        mc = McConfig(trials=2_000, seed=4)
        hist = simulate(LOSSY, mc)
        half = hist.counts // 2
        again = montecarlo.McHistogram(half + (hist.counts - half), mc.trials, LOSSY, mc)
        assert again.counts.tobytes() == hist.counts.tobytes()

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=1 << 64)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integral_seed_runs_as_its_int(self, backend):
        # One contract on every backend: seed 2.0 is seed 2, and seed 1.5 is
        # refused by McConfig, before any backend runs.
        want = simulate(LOSSY, McConfig(trials=5_000, seed=2), backend).counts
        got = simulate(LOSSY, McConfig(trials=5_000, seed=2.0), backend).counts
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match=r"^seed must be an integer in .* got 1\.5$"):
            simulate(LOSSY, McConfig(trials=5_000, seed=1.5), backend)

    def test_backend_must_name_a_backend(self):
        for value in ("cython", "C kernel", "numpy ", "NumPy", ""):
            message = rf"unknown backend {re.escape(repr(value))}, expected one of \('c', 'numpy'\)"
            with pytest.raises(ValueError, match=message):
                montecarlo.backend_choice(value)
            with pytest.raises(ValueError, match=message):
                simulate(LOSSY, McConfig(trials=10), value)
        assert montecarlo.backend_choice("numpy") == ("numpy", "backend 'numpy' requested")


class TestStreamLayout:
    def test_slots_are_block_aligned(self):
        for w in (1, 2, 4, 16, 1024):
            assert slots_per_trial(w) % 4 == 0
            assert slots_per_trial(w) >= 3 * w + 1

    def test_positioning_matches_contiguous_stream(self):
        w = 4
        slots = slots_per_trial(w)
        whole = philox_at_trial(99, 0, w).random((6, slots))
        tail = philox_at_trial(99, 2, w).random((4, slots))
        assert np.array_equal(whole[2:], tail)

    # At trial 2**23 of m = 10 the block counters pass 2**32, where a
    # 64-bit mulhi or a carry between 32-bit halves would go wrong.  The
    # last trial pair ends 360 counters below 2**64, short of the carry
    # into the next counter word that np.random.Philox would make.
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("trial", [0, 1 << 23, (2**64 - 1) // (slots_per_trial(1024) // 4) - 2])
    def test_counter_philox_matches_stream(self, seed, trial):
        w = 1024
        blocks = slots_per_trial(w) // 4
        want = philox_at_trial(seed, trial, w).random((2, 4 * blocks))
        counters = np.arange(2 * blocks, dtype=np.uint64) + np.uint64(trial * blocks + 1)
        got = philox_doubles(seed, counters).reshape(2, 4 * blocks)
        assert np.array_equal(got, want)

    def test_counter_philox_only_reads_its_counters(self):
        counters = np.arange(1, 2001, dtype=np.uint64)
        kept = counters.copy()
        want = philox_doubles(7, counters)
        assert np.array_equal(counters, kept)
        # Every other counter of a read-only array, and a column of a 2-d one.
        wide = np.repeat(counters, 2)
        wide.setflags(write=False)
        assert np.array_equal(philox_doubles(7, wide[::2]), want)
        assert np.array_equal(philox_doubles(7, np.stack([counters, kept], axis=1)[:, 0]), want)

    def test_counter_philox_of_no_counters(self):
        assert philox_doubles(7, np.array([], dtype=np.uint64)).shape == (0, 4)

    def test_block_counters_fit_in_one_word(self):
        # The counter path keeps the three upper counter words at zero.
        assert MAX_TRIALS * slots_per_trial(2**MAX_M) // 4 + 1 < 2**64


def counted(fn, calls: list):
    """``fn`` that appends the calling thread's id to ``calls`` on every call."""
    def wrapper(*args):
        calls.append(threading.get_ident())
        return fn(*args)
    return wrapper


def wrapped_drain(wrap):
    """``montecarlo._drain`` that runs each chunk through ``wrap(run)``."""
    drain = montecarlo._drain
    return lambda runs, spans: drain([wrap(run) for run in runs], spans)


def one_trial_chunks(monkeypatch, cpus: int) -> None:
    """Make every backend's chunks one trial each, on a host made to report
    ``cpus`` CPUs."""
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo, "_TASK_WORD_TARGET", 4)
    monkeypatch.setattr(montecarlo, "_CHUNKS_PER_LOOP", MAX_TRIALS)


def finish_within(seconds: float, fn, *args):
    """``fn(*args)`` run on a daemon thread that must return within ``seconds``."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    assert out, "the call raised"
    return out[0]


class TestDeterminism:
    def test_identical_runs_identical_histograms(self):
        a = simulate(LOSSY, McConfig(trials=50_000, seed=5))
        b = simulate(LOSSY, McConfig(trials=50_000, seed=5))
        assert np.array_equal(a.counts, b.counts)

    def test_seed_changes_histogram(self):
        a = simulate(LOSSY, McConfig(trials=50_000, seed=5))
        b = simulate(LOSSY, McConfig(trials=50_000, seed=6))
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shard_count_never_changes_results(self, backend):
        for cfg in (LOSSY, DEEP):
            base = simulate(cfg, McConfig(trials=30_001, seed=9, shards=1), backend)
            for shards in (2, 8, None):
                sharded = simulate(cfg, McConfig(trials=30_001, seed=9, shards=shards), backend)
                assert np.array_equal(base.counts, sharded.counts), (cfg.m, shards)

    def test_many_small_tasks_on_more_workers_than_cores(self, monkeypatch):
        # Dozens of chunks drained by 8 loops that switch every microsecond,
        # on a host made to report 8 CPUs: a chunk lost, run twice or summed
        # in a race would change the histogram.
        trials, seed = 30_001, 9
        want = {cfg: simulate(cfg, McConfig(trials, seed, shards=1), "numpy").counts
                for cfg in (LOSSY, DARK, DEEP)}
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 8)
        monkeypatch.setattr(montecarlo, "_CHUNK_WORD_TARGET", 1 << 16)
        monkeypatch.setattr(_numpy_backend, "_COUNTER_BATCH", 512)
        chunks = []

        def count(run):
            def wrapper(start, stop):
                chunks.append(threading.get_ident())
                if len(set(chunks)) < 2:
                    time.sleep(1e-3)  # lets the other loops start before this one drains all
                run(start, stop)
            return wrapper

        monkeypatch.setattr(montecarlo, "_drain", wrapped_drain(count))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for backend, (cfg, counts) in itertools.product(BACKENDS, want.items()):
                chunks.clear()
                hist = finish_within(60, simulate, cfg, McConfig(trials, seed, shards=8), backend)
                assert len(chunks) >= 32 and len(set(chunks)) > 1, (backend, cfg)
                assert np.array_equal(hist.counts, counts), (backend, cfg)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failing_chunk_stops_every_loop(self, backend, monkeypatch):
        # 3000 one-trial chunks on 4 loops, of which the tenth chunk raises.
        workers, failing = 4, 10
        calls, lock = [], threading.Lock()

        def fail_tenth(run):
            def wrapper(start, stop):
                with lock:
                    calls.append((start, stop))
                    call = len(calls)
                if call == failing:
                    raise RuntimeError(f"chunk {start} failed")
                run(start, stop)
            return wrapper

        one_trial_chunks(monkeypatch, cpus=workers)
        monkeypatch.setattr(montecarlo, "_drain", wrapped_drain(fail_tenth))
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=r"chunk \d+ failed"):
            simulate(SourceConfig(m=0, mu=0.1), McConfig(3000, seed=1, shards=workers), backend)
        # Each other loop finishes at most the chunk it holds.
        assert failing <= len(calls) <= failing + workers
        assert {stop - start for start, stop in calls} == {1}
        assert not set(threading.enumerate()) - before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failing_chunk_on_the_calling_thread_stops_every_loop(self, backend, monkeypatch):
        # The calling thread's first chunk raises, while each other loop
        # holds its first chunk until it has.
        workers, caller = 4, threading.get_ident()
        calls, lock, raised = [], threading.Lock(), threading.Event()

        def fail_on_caller(run):
            def wrapper(start, stop):
                with lock:
                    calls.append(threading.get_ident())
                if threading.get_ident() == caller:
                    raised.set()
                    raise RuntimeError(f"chunk {start} failed")
                assert raised.wait(10), "the calling thread took no chunk"
                run(start, stop)
            return wrapper

        one_trial_chunks(monkeypatch, cpus=workers)
        monkeypatch.setattr(montecarlo, "_drain", wrapped_drain(fail_on_caller))
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=r"chunk \d+ failed"):
            simulate(SourceConfig(m=0, mu=0.1), McConfig(3000, seed=1, shards=workers), backend)
        # No other loop takes a chunk after the one it held.
        assert calls.count(caller) == 1 and len(calls) <= workers
        assert not set(threading.enumerate()) - before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_shard_runs_every_chunk_on_the_calling_thread(self, backend, monkeypatch):
        before = threading.enumerate()
        seen = []

        def record(run):
            def wrapper(start, stop):
                seen.append((threading.get_ident(), threading.enumerate()))
                run(start, stop)
            return wrapper

        monkeypatch.setattr(montecarlo, "_drain", wrapped_drain(record))
        for cfg in (LOSSY, DEEP):
            seen.clear()
            simulate(cfg, McConfig(trials=30_001, seed=9, shards=1), backend)
            assert len(seen) > 1
            assert {ident for ident, _ in seen} == {threading.get_ident()}
            assert all(threads == before for _, threads in seen), "a thread started"

    def test_loops_never_outnumber_the_cpus(self, monkeypatch):
        # A stub drain counts the loops and runs every chunk on the first,
        # so that none of them starts.
        loops = []

        def drain(runs, spans):
            loops.append(len(runs))
            for span in spans:
                runs[0](*span)

        cfg = SourceConfig(m=0, mu=0.1)
        want = simulate(cfg, McConfig(trials=2000, seed=1, shards=1), "numpy").counts
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "_drain", drain)
        for backend in BACKENDS:
            got = simulate(cfg, McConfig(trials=2000, seed=1, shards=2000), backend).counts
            assert np.array_equal(got, want), backend
        assert loops == [3] * len(BACKENDS)

    # DEEP and DEEP_DARK run the numpy backend on its counter source.  The
    # C kernel computes blocks in one pass on BRIGHT_DEEP and DEEP, alone on
    # DIM_DEEP_DARK and DEEP_DARK, and only pair blocks at mu = 0.
    @needs_c
    @pytest.mark.parametrize("cfg", [LOSSY, DARK, SourceConfig(m=0, mu=0.3),
                                     SourceConfig(m=2, mu=0.05), DEEP, DEEP_DARK,
                                     SourceConfig(m=4, mu=0.0, e_h=0.85, e_s=0.9, e_sw_db=0.5),
                                     BRIGHT_DEEP, DIM_DEEP_DARK])
    def test_backends_bit_identical(self, cfg):
        mc = McConfig(trials=40_000, seed=123)
        a = simulate(cfg, mc, backend="c")
        b = simulate(cfg, mc, backend="numpy")
        assert np.array_equal(a.counts, b.counts)


# The numpy kernel as it was before the block scan: every test on every
# window of every trial.  Kept unchanged as the reference.
def full_width_run_chunk(uniforms, tables, counts):
    """Simulate one chunk of trials from pre-drawn stream words.

    ``uniforms`` has shape (trials, S) with the per-trial slot layout of
    :mod:`._tables`; surviving photon counts are accumulated into ``counts``.
    """
    w = tables.n_windows
    trials = uniforms.shape[0]
    u_pairs = uniforms[:, 0:w]
    u_herald = uniforms[:, w:2 * w]
    u_dark = uniforms[:, 2 * w:3 * w]
    u_survive = uniforms[:, 3 * w]

    pairs = np.searchsorted(tables.pair_cdf, u_pairs.ravel(), side="right")
    pairs = pairs.reshape(trials, w)
    triggered = u_herald < tables.herald_prob[pairs]
    if tables.p_dark > 0.0:
        triggered |= u_dark < tables.p_dark

    any_trigger = triggered.any(axis=1)
    routed = np.where(any_trigger, triggered.argmax(axis=1), w - 1)
    n_routed = pairs[np.arange(trials), routed]

    survivors = (u_survive[:, None] >= tables.survival_cdf[n_routed]).sum(axis=1)
    np.add.at(counts, survivors, 1)


class TestNumpyKernel:
    # m = 0 and 2 fit in the first scan block, m = 3 fills it exactly, and
    # m = 4, 6 and 10 run across two to eight blocks.  mu = 0 or e_h = 0
    # without dark counts sends every trial to the bypass window; e_h = 1 at
    # mu = 2 triggers nearly every trial in the first block.
    @pytest.mark.parametrize("r_dark", [0.0, 5e6])
    @pytest.mark.parametrize("m", [0, 2, 3, 4, 6, 10])
    def test_matches_full_width_reference(self, m, r_dark):
        w = 2 ** m
        slots = slots_per_trial(w)
        trials = max(256, (1 << 15) // slots)
        uniforms = philox_at_trial(m + 1, 5, w).random((trials, slots))
        for mu, e_h in itertools.product((0.0, 0.05, 0.5, 2.0), (0.0, 0.85, 1.0)):
            tables = build_tables(SourceConfig(m=m, mu=mu, e_h=e_h, e_s=0.9,
                                               e_sw_db=0.5, r_dark=r_dark))
            want = np.zeros(129, dtype=np.int64)
            got = np.zeros(129, dtype=np.int64)
            full_width_run_chunk(uniforms, tables, want)
            _numpy_backend.run_chunk(uniforms, tables, got)
            assert np.array_equal(got, want), (mu, e_h)

    # mu = 0 or e_h = 0 without dark counts makes every trial scan all
    # windows, the case where the counter source computes every block.
    # m = 0 and 1 are the layouts whose spans start inside a Philox block,
    # m = 2 the one where each word kind is exactly one block, and m = 3
    # and 5 have two and eight groups of four windows.  The trial range
    # straddles block counter 2**32.  The C kernel, where it builds,
    # computes its blocks by counter too.
    @pytest.mark.parametrize("r_dark", [0.0, 5e6])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6, 8, 10])
    def test_counter_source_matches_predrawn(self, m, r_dark):
        w = 2 ** m
        slots = slots_per_trial(w)
        trials = max(64, (1 << 14) // slots)
        start = (1 << 32) // (slots // 4) - trials // 2
        uniforms = philox_at_trial(m + 3, start, w).random((trials, slots))
        binders = [_numpy_backend.bind_counter, _ckernel.load()[0]]
        for mu, e_h in itertools.product((0.0, 0.05, 0.5, 2.0), (0.0, 0.85, 1.0)):
            tables = build_tables(SourceConfig(m=m, mu=mu, e_h=e_h, e_s=0.9,
                                               e_sw_db=0.5, r_dark=r_dark))
            want = np.zeros(129, dtype=np.int64)
            _numpy_backend.run_chunk(uniforms, tables, want)
            for bind in filter(None, binders):
                got = np.zeros(129, dtype=np.int64)
                bind(m + 3, tables, got)(start, start + trials)
                assert np.array_equal(got, want), (bind, mu, e_h)

    # The last trials the stream holds, under the largest seed: their block
    # counters lie between 2**40 and 2**50, and the key schedule that blocks
    # computed together share wraps at its first step.
    @needs_c
    @pytest.mark.parametrize("r_dark", [0.0, 5e6])
    @pytest.mark.parametrize("m", [0, 1, 2, 10])
    def test_c_kernel_matches_predrawn_at_the_top_of_the_stream(self, m, r_dark):
        seed, w = 2**64 - 1, 2 ** m
        start = MAX_TRIALS - 64
        uniforms = philox_at_trial(seed, start, w).random((64, slots_per_trial(w)))
        bind = _ckernel.load()[0]
        for mu, e_h in itertools.product((0.0, 0.5, 2.0), (0.0, 0.85)):
            tables = build_tables(SourceConfig(m=m, mu=mu, e_h=e_h, e_s=0.9,
                                               e_sw_db=0.5, r_dark=r_dark))
            want = np.zeros(129, dtype=np.int64)
            got = np.zeros(129, dtype=np.int64)
            _numpy_backend.run_chunk(uniforms, tables, want)
            bind(seed, tables, got)(start, MAX_TRIALS)
            assert np.array_equal(got, want), (mu, e_h)

    def test_counter_source_across_batches(self):
        batch = _numpy_backend._COUNTER_BATCH
        start, stop = batch - 5, 3 * batch + 7
        cfg = SourceConfig(m=6, mu=0.5, e_h=0.85, e_s=0.9, e_sw_db=1.0)
        tables = build_tables(cfg)
        uniforms = philox_at_trial(17, start, cfg.n_windows).random(
            (stop - start, slots_per_trial(cfg.n_windows)))
        want = np.zeros(129, dtype=np.int64)
        got = np.zeros(129, dtype=np.int64)
        _numpy_backend.run_chunk(uniforms, tables, want)
        _numpy_backend.run_counter(17, start, stop, tables, got)
        assert np.array_equal(got, want)

    # On two loops the C kernel allocates about 0.02 MB, and the numpy
    # pre-drawn source about 20.5 MB: two chunks of 2**19 words, and the
    # scan's arrays of one.
    def test_chunk_memory_stays_small(self):
        cfg = SourceConfig(m=0, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        for backend in BACKENDS:
            limit_mb = {"c": 0.25, "numpy": 24}[backend]
            simulate(cfg, McConfig(trials=10, seed=1), backend)
            tracemalloc.start()
            try:
                simulate(cfg, McConfig(trials=1 << 20, seed=1, shards=2), backend)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit_mb * 2**20, f"{backend}: peak {peak / 2**20:.2f} MB"

    # A counter batch's first round computes one Philox block of each word
    # kind, in place, so that a loop traces about 1.5 MB.
    @pytest.mark.parametrize("shards", [1, 2])
    def test_counter_source_memory_stays_small(self, shards):
        assert _numpy_backend.counter_source_pays(build_tables(DEEP))
        simulate(DEEP, McConfig(trials=10, seed=1), "numpy")
        tracemalloc.start()
        try:
            simulate(DEEP, McConfig(trials=16384, seed=42, shards=shards), "numpy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * shards * 2**20, f"peak {peak / 2**20:.2f} MB"

    # At m = 0 and 1 the pair, herald, dark and survival words share Philox
    # blocks, and the scan has a single round.
    @pytest.mark.parametrize("r_dark", [0.0, 5e6])
    @pytest.mark.parametrize("m", [0, 1])
    def test_counter_source_computes_each_block_once(self, m, r_dark, monkeypatch):
        received = []

        def record(key, counters):
            received.append(np.array(counters).ravel())
            return philox_doubles(key, counters)

        monkeypatch.setattr(_numpy_backend, "philox_doubles", record)
        tables = build_tables(SourceConfig(m=m, mu=0.5, e_h=0.85, e_s=0.9, e_sw_db=0.5,
                                           r_dark=r_dark))
        blocks, trials = slots_per_trial(2 ** m) // 4, 1000
        _numpy_backend.bind_counter(3, tables, np.zeros(129, dtype=np.int64))(5, 5 + trials)
        got = np.sort(np.concatenate(received))
        assert np.array_equal(got, np.arange(5 * blocks, (5 + trials) * blocks) + 1)

    def test_task_queue_stays_short(self, monkeypatch):
        # One trial per chunk: the drain loops take 3000 chunks one at a
        # time from the iterator, where 3000 queued tasks would hold some
        # 6 MB of futures.
        one_trial_chunks(monkeypatch, cpus=2)
        sizes = set()

        def record(run):
            def wrapper(start, stop):
                sizes.add(stop - start)
                run(start, stop)
            return wrapper

        monkeypatch.setattr(montecarlo, "_drain", wrapped_drain(record))
        cfg = SourceConfig(m=0, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        for backend in BACKENDS:
            want = simulate(cfg, McConfig(trials=3000, seed=1, shards=1), backend).counts
            tracemalloc.start()
            try:
                got = simulate(cfg, McConfig(trials=3000, seed=1, shards=2), backend).counts
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sizes == {1}, backend
            assert np.array_equal(got, want), backend
            assert peak < 2**20, f"{backend}: peak {peak / 2**20:.1f} MB"

    # Without light or dark counts no window heralds and no routed row can
    # give survivors, so a trial's pair blocks are all the kernel computes.
    @needs_c
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_c_kernel_computes_only_pair_blocks_in_the_dark(self, m):
        trials = 1000
        tables = build_tables(SourceConfig(m=m, mu=0.0, e_h=0.85, e_s=0.9, e_sw_db=0.5))
        counts = np.zeros(129, dtype=np.int64)
        assert _ckernel.load()[0](3, tables, counts)(0, trials) == trials * 2**m // 4
        assert counts[0] == trials

    # A trial of one or two windows computes all its blocks at its start.
    @needs_c
    @pytest.mark.parametrize("mu,r_dark", [(0.0, 0.0), (0.05, 5e6), (2.0, 0.0)])
    @pytest.mark.parametrize("m", [0, 1])
    def test_c_kernel_computes_every_block_of_a_shallow_trial(self, m, mu, r_dark):
        trials, w = 1000, 2 ** m
        tables = build_tables(SourceConfig(m=m, mu=mu, e_h=0.85, e_s=0.9, e_sw_db=0.5,
                                           r_dark=r_dark))
        counts = np.zeros(129, dtype=np.int64)
        blocks = _ckernel.load()[0](3, tables, counts)(0, trials)
        assert blocks == trials * slots_per_trial(w) // 4


def fresh_kernel(monkeypatch, cache_dir, builds: list):
    """Point the loader at an empty ``cache_dir``, forget the loaded kernel and
    count the compiler runs in ``builds``."""
    monkeypatch.setattr(_ckernel, "CACHE_DIR", cache_dir)
    monkeypatch.setattr(_ckernel, "_loaded", None)
    monkeypatch.setattr(_ckernel, "compile_library", counted(_ckernel.compile_library, builds))


TABLES = build_tables(LOSSY)


def strided(a: np.ndarray) -> np.ndarray:
    """The values of ``a`` as a view that is not C-contiguous."""
    return np.repeat(a, 2, axis=-1)[..., ::2]


def read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class TestCKernelArguments:
    # The kernel takes raw addresses, so these checks alone keep it inside
    # the arrays.  A stand-in library records every kernel call.
    @pytest.fixture
    def kernel(self, monkeypatch):
        calls = []

        class Library:
            def __init__(self, path):
                self.run_counter = lambda *args: calls.append(args)

        monkeypatch.setattr(_ckernel.ctypes, "CDLL", Library)
        return _ckernel._bind("stand-in"), calls

    @pytest.mark.parametrize("field,value,message", [
        ("pair_cdf", TABLES.pair_cdf.astype(np.float32), "float64"),
        ("herald_prob", strided(TABLES.herald_prob), "C-contiguous"),
        ("survival_cdf", np.asfortranarray(TABLES.survival_cdf), "C-contiguous"),
        ("herald_prob", TABLES.herald_prob[:-1].copy(), "pair-count cap"),
        ("survival_cdf", TABLES.survival_cdf[:-1].copy(), "pair-count cap"),
    ], ids=["dtype", "strided", "fortran", "short-herald", "short-survival"])
    def test_bad_tables_raise_before_the_kernel_runs(self, kernel, field, value, message):
        bind, calls = kernel
        with pytest.raises(ValueError, match=message):
            bind(1, dataclasses.replace(TABLES, **{field: value}), np.zeros(129, np.int64))
        assert not calls

    @pytest.mark.parametrize("counts,message", [
        (np.zeros(129, np.int32), "int64"),
        (strided(np.zeros(129, np.int64)), "C-contiguous"),
        (read_only(np.zeros(129, np.int64)), "writable"),
        (np.zeros(128, np.int64), "pair-count cap"),
    ], ids=["dtype", "strided", "read-only", "short"])
    def test_bad_counts_raise_before_the_kernel_runs(self, kernel, counts, message):
        bind, calls = kernel
        with pytest.raises(ValueError, match=message):
            bind(1, TABLES, counts)
        assert not calls

    def test_each_chunk_passes_the_bound_addresses(self, kernel):
        bind, calls = kernel
        counts = np.zeros(129, np.int64)
        run = bind(7, TABLES, counts)
        run(3, 5)
        run(5, 9)
        arrays = (TABLES.pair_cdf, TABLES.herald_prob, TABLES.survival_cdf, counts)
        for (seed, start, stop, windows, p_dark, *pointers), span in zip(calls, [(3, 5), (5, 9)]):
            assert (seed.value, start, stop) == (7, *span)
            assert (windows.value, p_dark.value) == (TABLES.n_windows, TABLES.p_dark)
            addresses = [p.value for p in pointers]
            assert addresses == [a.ctypes.data for a in arrays[:3]] + [129, counts.ctypes.data]


@needs_c
class TestCKernelBuild:
    def test_first_simulate_builds_then_the_cache_serves(self, tmp_path, monkeypatch):
        builds = []
        fresh_kernel(monkeypatch, tmp_path, builds)
        want = simulate(LOSSY, McConfig(trials=5_000, seed=3), "numpy").counts
        first = simulate(LOSSY, McConfig(trials=5_000, seed=3))
        assert first.backend == "c" and len(builds) == 1
        monkeypatch.setattr(_ckernel, "_loaded", None)  # a fresh process
        again = simulate(LOSSY, McConfig(trials=5_000, seed=3))
        assert again.backend == "c" and len(builds) == 1
        assert np.array_equal(first.counts, want) and np.array_equal(again.counts, want)
        assert [p.name for p in tmp_path.iterdir()] == [_ckernel._library().name]

    def test_changed_flags_name_and_build_another_library(self, tmp_path, monkeypatch):
        builds = []
        fresh_kernel(monkeypatch, tmp_path, builds)
        assert simulate(LOSSY, McConfig(trials=1_000, seed=6)).backend == "c"
        first = _ckernel._library()
        monkeypatch.setattr(_ckernel, "CFLAGS", (*_ckernel.CFLAGS, "-DPHOTONMUX_CACHE_KEY"))
        monkeypatch.setattr(_ckernel, "_loaded", None)
        assert _ckernel._library().name != first.name
        assert simulate(LOSSY, McConfig(trials=1_000, seed=6)).backend == "c"
        assert len(builds) == 2
        # The new build removed the first, which is stale in the package cache.
        assert [p.name for p in tmp_path.iterdir()] == [_ckernel._library().name]

    def test_a_build_removes_stale_libraries_from_the_package_cache_only(self, tmp_path,
                                                                          monkeypatch):
        platform = sysconfig.get_platform()
        stale = f"_ckernel-0123456789abcdef-{platform}.so"
        package, user = tmp_path / "package", tmp_path / "xdg" / "photonmux"
        for directory in (package, user):
            directory.mkdir(parents=True)
            (directory / stale).write_bytes(b"")
            (directory / "notes.txt").write_text("kept")
        fresh_kernel(monkeypatch, package, [])
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert simulate(LOSSY, McConfig(trials=1_000, seed=6)).backend == "c"
        assert sorted(p.name for p in package.iterdir()) == sorted(
            [_ckernel._library().name, "notes.txt"])
        assert sorted(p.name for p in user.iterdir()) == sorted([stale, "notes.txt"])

    def test_concurrent_cold_start_builds_one_library(self, tmp_path, monkeypatch):
        builds = []
        fresh_kernel(monkeypatch, tmp_path, builds)
        mc = McConfig(trials=5_000, seed=4)
        results = []
        threads = [threading.Thread(target=lambda: results.append(simulate(DARK, mc)))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 and {hist.backend for hist in results} == {"c"}
        assert all(np.array_equal(hist.counts, results[0].counts) for hist in results)
        assert len(builds) == 1 and len(list(tmp_path.iterdir())) == 1

    def test_unwritable_cache_falls_back_to_the_user_cache(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")  # no directory can be made below a file, even as root
        builds = []
        fresh_kernel(monkeypatch, blocker / "cache", builds)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert simulate(LOSSY, McConfig(trials=1_000, seed=5)).backend == "c"
        assert len(builds) == 1
        assert len(list((tmp_path / "xdg" / "photonmux").glob("_ckernel-*.so"))) == 1

    def test_kernel_compiles_without_warnings(self, tmp_path):
        command = [*_ckernel.compiler(), "-Wall", "-Wextra", "-Werror",
                   "-o", str(tmp_path / "kernel.so"), str(_ckernel.SOURCE)]
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_failed_build_falls_back_to_numpy_with_the_compiler_error(self, tmp_path,
                                                                      monkeypatch):
        source = tmp_path / "broken.c"
        source.write_text("int run_counter(void) { return undeclared; }\n")
        monkeypatch.setattr(_ckernel, "SOURCE", source)
        fresh_kernel(monkeypatch, tmp_path / "cache", [])
        run, detail = _ckernel.load()
        assert run is None and "undeclared" in detail and "\n" not in detail
        assert montecarlo.backend_choice() == (
            "numpy", f"fallback, the C kernel is unavailable: {detail}")
        assert available_backends() == ("numpy",)
        assert simulate(LOSSY, McConfig(trials=1_000, seed=5)).backend == "numpy"
        with pytest.raises(RuntimeError, match="undeclared"):
            simulate(LOSSY, McConfig(trials=1_000, seed=5), "c")
        assert not list((tmp_path / "cache").iterdir())


def test_kernel_builds_wherever_the_compiler_is_found():
    # Unskipped, unlike the C tests, which a kernel that fails to build
    # would turn into skips.
    if shutil.which(_ckernel.compiler()[0]):
        run, detail = _ckernel.load()
        assert run is not None, f"the C kernel did not build: {detail}"


class TestEventRules:
    @pytest.mark.parametrize("m", [21, 40])
    def test_rejects_trials_wider_than_a_chunk(self, m):
        with pytest.raises(ValueError, match=rf"m={m}.*m <= 20"):
            simulate(SourceConfig(m=m, mu=0.1), McConfig(trials=1))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refuses_a_month_long_run_before_any_chunk(self, backend, monkeypatch):
        # A trial at m = 20 and mu = 1e-6 scans about 6.5e5 windows before its
        # first herald, so 1e9 trials would run for about a month.
        def drain(runs, spans):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(montecarlo, "_drain", drain)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^the run would scan about 6\.5e\+14 windows, "
                                             rf"more than the limit of {MAX_TRIALS} \(2\^40"):
            simulate(SourceConfig(m=20, mu=1e-6), McConfig(trials=1e9, shards=1), backend)
        assert time.perf_counter() - start < 1.0

    def test_work_bound_is_max_trials_of_one_window(self, monkeypatch):
        class Drained(Exception):
            pass

        def drain(runs, spans):
            raise Drained

        monkeypatch.setattr(montecarlo, "_drain", drain)
        with pytest.raises(Drained):
            simulate(SourceConfig(m=0, mu=0.0), McConfig(trials=MAX_TRIALS))
        # Two silent windows a trial are twice the work.
        with pytest.raises(ValueError, match=r"scan about 2\.2e\+12 windows"):
            simulate(SourceConfig(m=1, mu=0.0), McConfig(trials=MAX_TRIALS))
        # The expected windows of a trial, not all 2^m of them, count.
        with pytest.raises(Drained):
            simulate(SourceConfig(m=10, mu=0.5), McConfig(trials=MAX_TRIALS // 3))

    def test_dark_pump_yields_only_vacuum(self):
        hist = simulate(SourceConfig(m=3, mu=0.0), McConfig(trials=10_000, seed=1))
        assert hist.counts[0] == 10_000
        assert hist.counts[1:].sum() == 0

    def test_counts_sum_to_trials(self):
        hist = simulate(DARK, McConfig(trials=12_345, seed=3))
        assert int(hist.counts.sum()) == 12_345
        rows = hist.rows()
        assert rows[0][0] == 0
        assert sum(r[1] for r in rows) == 12_345

    def test_ideal_source_agrees_with_exact_distribution(self):
        cfg = SourceConfig(m=3, mu=0.05)
        hist = simulate(cfg, McConfig(trials=1_000_000, seed=21))
        ideal = ideal_distribution(cfg)
        report = compare(PhotonDistribution(ideal.probs, ideal.n_max, ideal.tail_mass, cfg),
                         hist)
        assert report.passed, report.lines()

    def test_lossy_source_agrees_with_analytic_chain(self):
        hist = simulate(LOSSY, McConfig(trials=500_000, seed=22))
        report = compare(output_distribution(LOSSY), hist)
        assert report.passed, report.lines()

    def test_heralding_loss_only_agrees(self):
        cfg = SourceConfig(m=4, mu=0.1, e_h=0.85)
        hist = simulate(cfg, McConfig(trials=1_000_000, seed=24))
        report = compare(output_distribution(cfg), hist)
        assert report.passed, report.lines()

    def test_dark_counts_agree_with_analytic_chain(self):
        hist = simulate(DARK, McConfig(trials=500_000, seed=23))
        report = compare(output_distribution(DARK), hist)
        assert report.passed, report.lines()

    def test_deep_multiplexer_agrees_with_analytic_chain(self):
        cfg = SourceConfig(m=10, mu=0.05, e_h=0.85, e_s=0.9, e_sw_db=1.0, r_dark=5e6)
        assert _numpy_backend.counter_source_pays(build_tables(cfg))
        hist = simulate(cfg, McConfig(trials=100_000, seed=25))
        report = compare(output_distribution(cfg), hist)
        assert report.passed, report.lines()


class TestCompare:
    def test_detects_wrong_model(self):
        # Analytic curve for e_h = 0.5 against samples drawn at e_h = 0.85.
        hist = simulate(LOSSY, McConfig(trials=200_000, seed=31))
        wrong = output_distribution(LOSSY.replace(e_h=0.5))
        report = compare(PhotonDistribution(wrong.probs, wrong.n_max, wrong.tail_mass, LOSSY),
                         hist)
        assert not report.passed

    def test_rejects_config_mismatch(self):
        hist = simulate(LOSSY, McConfig(trials=1_000, seed=1))
        other = output_distribution(LOSSY.replace(mu=0.2))
        with pytest.raises(ValueError, match="different configs"):
            compare(other, hist)

    def test_report_lines_render(self):
        hist = simulate(LOSSY, McConfig(trials=50_000, seed=41))
        report = compare(output_distribution(LOSSY), hist)
        text = "\n".join(report.lines())
        assert "tv_distance" in text and "agreement" in text
        assert not report.tv_vacuous and "cannot fail" not in text

    def test_gate_limits(self):
        # z within 4, TV within 3 sqrt(n_max / trials), tail groups of at
        # least 10 expected counts.
        assert (montecarlo.Z_LIMIT, montecarlo.TV_FACTOR, montecarlo.MIN_EXPECTED) == (
            4.0, 3.0, 10.0)
        hist = simulate(LOSSY, McConfig(trials=50_000, seed=41))
        analytic = output_distribution(LOSSY)
        report = compare(analytic, hist)
        assert report.z_limit == 4.0
        assert report.tv_limit == 3.0 * math.sqrt(30 / 50_000)
        # The tail group is the shortest one of at least 10 expected counts.
        tail = analytic.probs[report.tail_start:].sum() + analytic.tail_mass
        assert tail * 50_000 >= 10.0 > (tail - analytic.probs[report.tail_start]) * 50_000
        assert report.passed == (report.tv_distance <= report.tv_limit
                                 and report.max_abs_z <= 4.0)

    def test_report_flags_vacuous_tv_gate(self):
        # At n_max = 30 the TV limit 3 sqrt(30 / trials) is >= 1 below 270 trials.
        hist = simulate(LOSSY, McConfig(trials=100, seed=42))
        report = compare(output_distribution(LOSSY), hist)
        assert report.tv_vacuous
        assert any("tv gate cannot fail" in line for line in report.lines())
        check = check_agreement(McConfig(trials=100, seed=42))
        assert "TV gate cannot fail at 100 trials" in check.detail

    def test_gate_detects_passage_and_dark_count_errors(self):
        # The unchanged gate on criterion 7's configs at 1e5 trials: the true
        # chain passes, a chain with one switch passage more or fewer fails
        # every config, and one without dark counts fails the dark config.
        def model(cfg, transmission, p_dark):
            # No config, so compare takes a model of another device.
            (_, probs, tail), = _blocks(np.array([cfg.mu]), transmission, cfg.e_h,
                                        cfg.n_windows, p_dark, DEFAULT_N_MAX)
            return PhotonDistribution(probs[0], DEFAULT_N_MAX, float(tail[0]))

        def reports(build):
            return [compare(build(cfg), hist) for cfg, hist in zip(AGREEMENT_CONFIGS, hists)]

        hists = [simulate(cfg, McConfig(trials=100_000, seed=42)) for cfg in AGREEMENT_CONFIGS]
        true = reports(lambda cfg: model(cfg, cfg.e_s_total, cfg.p_dark))
        assert all(report.passed for report in true)
        assert round(max(report.max_abs_z for report in true), 2) == 2.17
        def passage(cfg):
            return 10 ** (-cfg.e_sw_db / 10)

        more = reports(lambda cfg: model(cfg, cfg.e_s_total * passage(cfg), cfg.p_dark))
        fewer = reports(lambda cfg: model(cfg, cfg.e_s_total / passage(cfg), cfg.p_dark))
        for wrong, smallest_z in ((more, 7.1), (fewer, 7.3)):
            assert not any(report.passed for report in wrong)
            assert round(min(report.max_abs_z for report in wrong), 1) == smallest_z
        dark = AGREEMENT_CONFIGS[-1]
        assert dark.r_dark > 0 and all(cfg.r_dark == 0 for cfg in AGREEMENT_CONFIGS[:-1])
        dark_free = compare(model(dark, dark.e_s_total, 0.0), hists[-1])
        assert not dark_free.passed and round(dark_free.max_abs_z, 1) == 14.7


class TestTables:
    def test_rejects_pump_beyond_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_tables(SourceConfig(m=0, mu=120.0))

    def test_survival_cdf_is_cached_read_only(self):
        # Every simulate call builds its tables, and every call with the
        # same signal transmission shares one survival CDF.
        cdf = build_tables(LOSSY).survival_cdf
        assert cdf is build_tables(LOSSY.replace(mu=0.2, e_h=0.5)).survival_cdf
        with pytest.raises(ValueError):
            cdf[1, 0] = 0.5

    def test_survival_rows_bounded(self):
        tables = build_tables(LOSSY)
        assert tables.survival_cdf.shape[0] == tables.survival_cdf.shape[1]
        assert np.all(tables.survival_cdf[:, -1] == 1.0)
