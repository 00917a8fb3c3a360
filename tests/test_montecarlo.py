import itertools
import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from photonmux import (
    McConfig,
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
from photonmux.validate import check_agreement

BACKENDS = available_backends()
LOSSY = SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
DARK = SourceConfig(m=3, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6)
# Deep enough that the numpy backend computes Philox blocks by counter.
DEEP = SourceConfig(m=8, mu=0.5, e_h=0.85, e_s=0.9, e_sw_db=1.0)
DEEP_DARK = SourceConfig(m=10, mu=0.05, e_h=0.85, e_s=0.9, e_sw_db=1.0, r_dark=5e6)
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

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=1 << 64)

    def test_backend_variable_must_name_a_backend(self, monkeypatch):
        for value in ("cython", "C kernel", "numpy "):
            monkeypatch.setenv("PHOTONMUX_BACKEND", value)
            message = rf"PHOTONMUX_BACKEND='{value.lower()}', expected one of \('c', 'numpy'\)"
            with pytest.raises(ValueError, match=message):
                montecarlo.backend_choice()
            with pytest.raises(ValueError, match=message):
                simulate(LOSSY, McConfig(trials=10))
        # An explicit backend does not read the variable.
        assert montecarlo.backend_choice("numpy") == ("numpy", "backend 'numpy' requested")
        monkeypatch.setenv("PHOTONMUX_BACKEND", "NumPy")
        assert montecarlo.backend_choice() == ("numpy", "PHOTONMUX_BACKEND=numpy")
        # An empty value counts as unset.
        monkeypatch.setenv("PHOTONMUX_BACKEND", "")
        empty = montecarlo.backend_choice()
        monkeypatch.delenv("PHOTONMUX_BACKEND")
        assert empty == montecarlo.backend_choice()


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
    # 64-bit mulhi or a carry between 32-bit halves would go wrong.
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("trial", [0, 1 << 23])
    def test_counter_philox_matches_stream(self, seed, trial):
        w = 1024
        blocks = slots_per_trial(w) // 4
        want = philox_at_trial(seed, trial, w).random((2, 4 * blocks))
        counters = np.arange(2 * blocks, dtype=np.uint64) + np.uint64(trial * blocks + 1)
        got = philox_doubles(seed, counters).reshape(2, 4 * blocks)
        assert np.array_equal(got, want)

    def test_block_counters_fit_in_one_word(self):
        # The counter path keeps the three upper counter words at zero.
        assert MAX_TRIALS * slots_per_trial(2**MAX_M) // 4 + 1 < 2**64


def counted(fn, calls: list):
    """``fn`` that appends the calling thread's id to ``calls`` on every call."""
    def wrapper(*args):
        calls.append(threading.get_ident())
        return fn(*args)
    return wrapper


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
        # Dozens of chunks on 8 threads that switch every microsecond: a chunk
        # lost, run twice or summed in a race would change the histogram.
        trials, seed = 30_001, 9
        want = {cfg: simulate(cfg, McConfig(trials, seed, shards=1), "numpy").counts
                for cfg in (LOSSY, DARK, DEEP)}
        monkeypatch.setattr(montecarlo, "_CHUNK_WORD_TARGET", 1 << 16)
        monkeypatch.setattr(_numpy_backend, "_COUNTER_BATCH", 512)
        tasks = []
        monkeypatch.setattr(montecarlo, "_simulate_range",
                            counted(montecarlo._simulate_range, tasks))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for backend, (cfg, counts) in itertools.product(BACKENDS, want.items()):
                tasks.clear()
                hist = finish_within(60, simulate, cfg, McConfig(trials, seed, shards=8), backend)
                assert len(tasks) >= 32 and len(set(tasks)) > 1, (backend, cfg)
                assert np.array_equal(hist.counts, counts), (backend, cfg)
        finally:
            sys.setswitchinterval(interval)

    # DEEP and DEEP_DARK run the numpy backend on its counter source.
    @needs_c
    @pytest.mark.parametrize("cfg", [LOSSY, DARK, SourceConfig(m=0, mu=0.3),
                                     SourceConfig.lossless(m=2, mu=0.05), DEEP, DEEP_DARK])
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
        runners = [_numpy_backend.run_counter, _ckernel.load()[0]]
        for mu, e_h in itertools.product((0.0, 0.05, 0.5, 2.0), (0.0, 0.85, 1.0)):
            tables = build_tables(SourceConfig(m=m, mu=mu, e_h=e_h, e_s=0.9,
                                               e_sw_db=0.5, r_dark=r_dark))
            want = np.zeros(129, dtype=np.int64)
            _numpy_backend.run_chunk(uniforms, tables, want)
            for run_counter in filter(None, runners):
                got = np.zeros(129, dtype=np.int64)
                run_counter(m + 3, start, start + trials, tables, got)
                assert np.array_equal(got, want), (run_counter, mu, e_h)

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
        run_counter = _ckernel.load()[0]
        for mu, e_h in itertools.product((0.0, 0.5, 2.0), (0.0, 0.85)):
            tables = build_tables(SourceConfig(m=m, mu=mu, e_h=e_h, e_s=0.9,
                                               e_sw_db=0.5, r_dark=r_dark))
            want = np.zeros(129, dtype=np.int64)
            got = np.zeros(129, dtype=np.int64)
            _numpy_backend.run_chunk(uniforms, tables, want)
            run_counter(seed, start, MAX_TRIALS, tables, got)
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

    def test_chunk_memory_stays_small(self):
        cfg = SourceConfig(m=0, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        simulate(cfg, McConfig(trials=10, seed=1))
        tracemalloc.start()
        try:
            simulate(cfg, McConfig(trials=1 << 20, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MB"

    def test_task_queue_stays_short(self, monkeypatch):
        # One trial per task: 3000 tasks queued at once would hold some 6 MB
        # of futures.
        monkeypatch.setattr(montecarlo, "_TASK_WORD_TARGET", 4)
        cfg = SourceConfig(m=0, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        want = simulate(cfg, McConfig(trials=3000, seed=1, shards=1)).counts
        tracemalloc.start()
        try:
            got = simulate(cfg, McConfig(trials=3000, seed=1, shards=2)).counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"


def fresh_kernel(monkeypatch, cache_dir, builds: list):
    """Point the loader at an empty ``cache_dir``, forget the loaded kernel and
    count the compiler runs in ``builds``."""
    monkeypatch.delenv("PHOTONMUX_BACKEND", raising=False)
    monkeypatch.setattr(_ckernel, "CACHE_DIR", cache_dir)
    monkeypatch.setattr(_ckernel, "_loaded", None)
    monkeypatch.setattr(_ckernel, "compile_library", counted(_ckernel.compile_library, builds))


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
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [first.name, _ckernel._library().name])

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
        monkeypatch.setenv("PHOTONMUX_BACKEND", "c")
        with pytest.raises(RuntimeError, match="undeclared"):
            simulate(LOSSY, McConfig(trials=1_000, seed=5))
        assert not list((tmp_path / "cache").iterdir())


class TestEventRules:
    @pytest.mark.parametrize("m", [21, 40])
    def test_rejects_trials_wider_than_a_chunk(self, m):
        with pytest.raises(ValueError, match=rf"m={m}.*m <= 20"):
            simulate(SourceConfig(m=m, mu=0.1), McConfig(trials=1))

    def test_dark_pump_yields_only_vacuum(self):
        hist = simulate(SourceConfig.lossless(m=3, mu=0.0), McConfig(trials=10_000, seed=1))
        assert hist.counts[0] == 10_000
        assert hist.counts[1:].sum() == 0

    def test_counts_sum_to_trials(self):
        hist = simulate(DARK, McConfig(trials=12_345, seed=3))
        assert int(hist.counts.sum()) == 12_345
        rows = hist.rows()
        assert rows[0][0] == 0
        assert sum(r[1] for r in rows) == 12_345

    def test_ideal_source_agrees_with_exact_distribution(self):
        cfg = SourceConfig.lossless(m=3, mu=0.05)
        hist = simulate(cfg, McConfig(trials=1_000_000, seed=21))
        report = compare(ideal_distribution(cfg).with_meta(config=cfg), hist)
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
        report = compare(wrong.with_meta(config=LOSSY), hist)
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


class TestTables:
    def test_rejects_pump_beyond_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_tables(SourceConfig(m=0, mu=120.0))

    def test_survival_rows_bounded(self):
        tables = build_tables(LOSSY)
        assert tables.survival_cdf.shape[0] == tables.survival_cdf.shape[1]
        assert np.all(tables.survival_cdf[:, -1] == 1.0)
