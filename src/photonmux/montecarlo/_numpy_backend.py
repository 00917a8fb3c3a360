"""Vectorized pure-numpy fallback for the event-level simulator kernel.

The scan runs over blocks of windows.  The first block is read for every
trial and holds its first windows, or all of them when a trial has fewer:
8 on the pre-drawn source, and 4, one Philox block of each word kind, on
the counter source, which pays for every block it computes.  Each later
block is twice as wide as the one before and is read only for the trials
that have not triggered yet.  A trial leaves the scan at its first
triggered window, and a trial that never triggers routes window W-1.
Where the first block holds every window, the scan reads the survival
words in the same round.

The outcome of a trial is decided by the pair, herald and dark words of
every window up to and including the first triggered one, then the
survival word.  The C kernel reads just these words, one window at a time,
and skips a window's dark word once its herald word has triggered; the
Philox blocks it computes for them, a group of four windows per block, hold
the words of the group's later windows too.  This scan also loads words of
later windows with the rest of their block, but they never decide an
outcome, so both backends give the same routed count and the same survivors
for every trial, and hence bit-identical histograms.

The scan takes its words from one of two sources, which hold the same
words: a chunk of stream words pre-drawn in order (``run_chunk``), or
Philox blocks computed by counter for just the slots the scan reads
(``run_counter``), each once per round where the spans of a round share
it, as at m = 0 and 1.  ``counter_source_pays`` picks between them, and
``bind_predrawn`` and ``bind_counter`` bind either to one run of
``simulate``, as ``_ckernel``'s ``bind`` does the C kernel.

Survivors are drawn per routed count ``n``: searching the survival word in
row ``n`` of the survival CDF counts the ``k`` with ``u >= cdf[n, k]``,
because each row is non-decreasing.
"""

from __future__ import annotations

import numpy as np

from ._philox import philox_doubles
from ._tables import SamplingTables, philox_at_trial, slots_per_trial

__all__ = ["run_chunk", "run_counter", "bind_predrawn", "bind_counter", "counter_source_pays"]

# Windows in the pre-drawn source's first scan block, where every word is
# drawn anyway: a first block of 4 windows ran slower there (215 against
# 211 ms for 2**18 trials of oracle_grid's identity config on one loop of a
# 2-vCPU x86-64 host).  The counter source starts with 4.
_FIRST_BLOCK = 8
# Applies only where the numpy backend runs, as the fallback when the C
# kernel cannot be built or when it is asked for.  A block computed by
# counter in numpy costs 120-150 ns, after a fixed 0.33 ms per evaluation,
# against about 25 ns for one drawn in sequence.  Measured on a 2-vCPU
# x86-64 host, the two sources break even where the sequential draw makes
# about 4.5 times the blocks the counter source computes on one thread, and
# 9-10 times on two worker threads, the default there, from which the
# counter source gains less.  It is used only above 7 times.
_COUNTER_COST_MARGIN = 7
# Trials per counter batch.  The first scan block's one Philox evaluation
# then covers 2-4 blocks of each trial, 16k-33k blocks: enough to hide the
# fixed cost of an evaluation, and near the cache-sized batches where a
# block costs least.  Its rounds run in eight words per block (see
# ``_philox``), 1-2 MB.
_COUNTER_BATCH = 1 << 13


def _window_blocks(w: int, first_width: int):
    """(lo, hi) window ranges of the scan: ``first_width`` windows, then twice the last width."""
    lo, hi = 0, min(first_width, w)
    while lo < w:
        yield lo, hi
        lo, hi = hi, min(hi + 2 * (hi - lo), w)


def _scan(read, trials: int, tables: SamplingTables, counts: np.ndarray,
          first_width: int) -> None:
    """Block scan over ``trials`` trials whose words come from ``read``.

    ``read(take, spans)`` returns an iterator over one array of stream words
    per ``(start, stop)`` slot span, for the trials that ``take`` (a slice or
    an index array) selects.  The scan takes the arrays one at a time, so a
    source that builds each only when it is reached holds one at a time.
    Its first round covers ``first_width`` windows; where that is every window,
    the round reads the survival words too, so that a source reads every
    trial's words in one call.
    """
    w = tables.n_windows
    dark = tables.p_dark > 0.0
    survival, single = (3 * w, 3 * w + 1), w <= first_width
    routed_n = np.empty(trials, dtype=np.intp)
    rows = np.arange(trials)  # trials still scanning
    for lo, hi in _window_blocks(w, first_width):
        take = slice(None) if lo == 0 else rows
        spans = [(lo, hi), (w + lo, w + hi)] + ([(2 * w + lo, 2 * w + hi)] if dark else [])
        words = read(take, spans + [survival] if single else spans)
        pairs = np.searchsorted(tables.pair_cdf, next(words), side="right")
        triggered = next(words) < tables.herald_prob[pairs]
        if dark:
            triggered |= next(words) < tables.p_dark
        hit = triggered.any(axis=1)
        first = triggered.argmax(axis=1)
        if hi == w:
            # A trial that never triggers routes the final window.
            first[~hit] = hi - lo - 1
            routed_n[take] = pairs[np.arange(first.size), first]
            break
        routed_n[rows[hit]] = pairs[hit, first[hit]]
        rows = rows[~hit]
        if not rows.size:
            break

    if not single:
        words = read(slice(None), [survival])
    u_survive = next(words)[:, 0]
    for n in np.flatnonzero(np.bincount(routed_n)):
        survivors = np.searchsorted(tables.survival_cdf[n], u_survive[routed_n == n], side="right")
        counts += np.bincount(survivors, minlength=counts.size)


def run_chunk(uniforms: np.ndarray, tables: SamplingTables, counts: np.ndarray) -> None:
    """Simulate one chunk of trials from pre-drawn stream words.

    ``uniforms`` has shape (trials, S) with the per-trial slot layout of
    :mod:`._tables`; surviving photon counts are accumulated into ``counts``.
    """
    def read(take, spans):
        return (uniforms[take, start:stop] for start, stop in spans)

    _scan(read, uniforms.shape[0], tables, counts, _FIRST_BLOCK)


def _counter_reader(seed: int, first_counter: np.ndarray):
    """``read`` for ``_scan`` that computes the Philox blocks holding the spans.

    ``first_counter[i]`` is the counter of trial i's first block; slot j of
    a trial is lane j % 4 of the block j // 4 after it.  A block that holds
    words of several spans is computed once.
    """
    def read(take, spans):
        blocks = np.unique(np.concatenate(
            [np.arange(start // 4, (stop + 3) // 4, dtype=np.uint64) for start, stop in spans]))
        counters = first_counter[take][:, None] + blocks
        words = philox_doubles(seed, counters).reshape(counters.shape[0], -1)
        # A span's blocks are consecutive among the sorted blocks.
        at = [4 * int(np.searchsorted(blocks, start // 4)) + start % 4 for start, _ in spans]
        return (words[:, a:a + stop - start] for a, (start, stop) in zip(at, spans))

    return read


def run_counter(seed: int, start: int, stop: int, tables: SamplingTables,
                counts: np.ndarray) -> None:
    """Simulate trials [start, stop), computing only the Philox blocks the scan reads.

    Gives the counts that ``run_chunk`` gives on the same trials' pre-drawn
    words.  Trials run in batches of ``_COUNTER_BATCH``.
    """
    blocks_per_trial = np.uint64(slots_per_trial(tables.n_windows) // 4)
    for lo in range(start, stop, _COUNTER_BATCH):
        trials = np.arange(lo, min(lo + _COUNTER_BATCH, stop), dtype=np.uint64)
        # np.random.Philox computes block i of its stream at counter i + 1.
        first_counter = trials * blocks_per_trial + np.uint64(1)
        # The first round covers one Philox block of each word kind.
        _scan(_counter_reader(seed, first_counter), trials.size, tables, counts, 4)


def bind_predrawn(seed: int, tables: SamplingTables, counts: np.ndarray):
    """``run(start, stop)`` on words pre-drawn in order: it adds the counts
    of trials [start, stop) to ``counts`` through ``run_chunk``, read at
    each call."""
    w = tables.n_windows
    slots = slots_per_trial(w)

    def run(start: int, stop: int) -> None:
        uniforms = philox_at_trial(seed, start, w).random((stop - start, slots))
        run_chunk(uniforms, tables, counts)

    return run


def bind_counter(seed: int, tables: SamplingTables, counts: np.ndarray):
    """``run(start, stop)`` on words computed by counter: it adds the counts
    of trials [start, stop) to ``counts`` through ``run_counter``."""
    return lambda start, stop: run_counter(seed, start, stop, tables, counts)


def counter_source_pays(tables: SamplingTables) -> bool:
    """Whether computing blocks by counter beats drawing every trial's words.

    Estimates the Philox blocks a trial's scan reads from the per-window
    probability that a window stays silent, over the counter source's block
    schedule, and compares them with the S/4 blocks a sequential draw makes.
    """
    w = tables.n_windows
    silent = tables.silent_probability()
    kinds = 3 if tables.p_dark > 0.0 else 2
    blocks = 1.0 + sum(silent ** lo * kinds * (hi - lo) / 4 for lo, hi in _window_blocks(w, 4))
    return _COUNTER_COST_MARGIN * blocks < slots_per_trial(w) / 4
