"""Vectorized pure-numpy fallback for the event-level simulator kernel.

The scan runs over blocks of windows.  The first block holds the first 8
windows (or all of them when a trial has fewer) and is read through slices
of the chunk; each later block is twice as wide as the one before and is
gathered only for the trials that have not triggered yet.  A trial leaves
the scan at its first triggered window, and a trial that never triggers
routes window W-1.

This reads exactly the words that the compiled kernel reads: the pair,
herald and dark words of every window up to and including the first
triggered one, then the survival word.  Words of later windows may be
loaded with the rest of their block, but they never decide an outcome, so
both backends give the same routed count and the same survivors for every
trial, and hence bit-identical histograms.

Survivors are drawn per routed count ``n``: searching the survival word in
row ``n`` of the survival CDF counts the ``k`` with ``u >= cdf[n, k]``,
because each row is non-decreasing.
"""

from __future__ import annotations

import numpy as np

from ._tables import SamplingTables

__all__ = ["run_chunk"]

_FIRST_BLOCK = 8


def run_chunk(uniforms: np.ndarray, tables: SamplingTables, counts: np.ndarray) -> None:
    """Simulate one chunk of trials from pre-drawn stream words.

    ``uniforms`` has shape (trials, S) with the per-trial slot layout of
    :mod:`._tables`; surviving photon counts are accumulated into ``counts``.
    """
    w = tables.n_windows
    routed_n = np.empty(uniforms.shape[0], dtype=np.intp)
    rows = np.arange(uniforms.shape[0])  # trials still scanning
    lo, hi = 0, min(_FIRST_BLOCK, w)
    while True:
        take = slice(None) if lo == 0 else rows
        pairs = np.searchsorted(tables.pair_cdf, uniforms[take, lo:hi], side="right")
        triggered = uniforms[take, w + lo:w + hi] < tables.herald_prob[pairs]
        if tables.p_dark > 0.0:
            triggered |= uniforms[take, 2 * w + lo:2 * w + hi] < tables.p_dark
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
        lo, hi = hi, min(hi + 2 * (hi - lo), w)

    u_survive = uniforms[:, 3 * w]
    for n in np.flatnonzero(np.bincount(routed_n)):
        survivors = np.searchsorted(tables.survival_cdf[n], u_survive[routed_n == n], side="right")
        counts += np.bincount(survivors, minlength=counts.size)
