"""Philox4x64-10 by block counter, vectorized in numpy.

Philox is counter-based (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11): block ``c`` of the stream is a pure function of ``c`` and
the key, so any word can be computed without drawing the ones before it.
``philox_doubles`` reproduces ``np.random.Philox(key=seed)`` bit for bit:
that generator's i-th block (i = 0, 1, ...) is counter i + 1, key (seed, 0).

The ten rounds run in place: every ufunc writes through ``out=`` into one of
eight arrays of one element per block, four for the counter words and four
of scratch, and the scratch then holds the doubles returned.  A call thus
allocates eight words per block, whatever the number of rounds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox_doubles"]

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10


def _round_keys(key: int, r: int):
    """The two key words of round ``r``."""
    return np.uint64((key + r * _WEYL[0]) & _MASK64), np.uint64((r * _WEYL[1]) & _MASK64)


def _mulhi(a: np.ndarray, m: int, hi: np.ndarray, scratch: np.ndarray) -> None:
    """Write the high 64-bit word of the 128-bit product a * m into ``hi``.

    Schoolbook on 32-bit halves, in the three rows of ``scratch``; neither
    partial sum can pass 2**64 - 2**32.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi, part = scratch
    np.bitwise_and(a, _MASK32, out=a_lo)
    np.right_shift(a, _SHIFT32, out=a_hi)
    np.multiply(a_lo, m_lo, out=part)
    np.right_shift(part, _SHIFT32, out=part)
    np.multiply(a_hi, m_lo, out=hi)
    hi += part  # mid = a_hi * m_lo + (a_lo * m_lo >> 32)
    np.bitwise_and(hi, _MASK32, out=part)
    a_lo *= m_hi
    part += a_lo
    part >>= _SHIFT32  # carry out of the low half
    hi >>= _SHIFT32
    hi += part
    a_hi *= m_hi
    hi += a_hi


def philox_doubles(key: int, counters: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1), shape (counters.size, 4), of the blocks at ``counters``.

    ``counters`` holds the low counter word, and is only read; the three
    upper words are zero.  The first two rounds, where some counter words
    are still the same for every block, are written out without the
    products on them.  Each output word x maps to (x >> 11) * 2**-53, as in
    ``Generator.random``.
    """
    key, counters = int(key), np.asarray(counters, dtype=np.uint64)
    n = counters.size
    state = np.empty((4, n), dtype=np.uint64)
    scratch = np.empty((4, n), dtype=np.uint64)
    h, work = scratch[0], scratch[1:]
    a, b, c, d = state
    np.copyto(a.reshape(counters.shape), counters)

    # Round 0 on (x, 0, 0, 0) gives (key, 0, hi(x M0), lo(x M0)).
    _mulhi(a, _MULTIPLIERS[0], c, work)
    a *= np.uint64(_MULTIPLIERS[0])
    # Round 1 on (key, 0, y, z) gives (hi(y M1) ^ k0, lo(y M1), hi(key M0) ^ z ^ k1,
    # lo(key M0)); the products of key are the same for every block.
    k0, k1 = _round_keys(key, 1)
    product = key * _MULTIPLIERS[0]
    _mulhi(c, _MULTIPLIERS[1], b, work)
    b ^= k0
    c *= np.uint64(_MULTIPLIERS[1])
    a ^= np.uint64(product >> 64) ^ k1
    d.fill(product & _MASK64)
    x0, x1, x2, x3 = b, c, a, d

    for r in range(2, _ROUNDS):
        k0, k1 = _round_keys(key, r)
        _mulhi(x0, _MULTIPLIERS[0], h, work)
        x3 ^= h
        x3 ^= k1
        _mulhi(x2, _MULTIPLIERS[1], h, work)
        x1 ^= h
        x1 ^= k0
        x0 *= np.uint64(_MULTIPLIERS[0])
        x2 *= np.uint64(_MULTIPLIERS[1])
        x0, x1, x2, x3 = x1, x2, x3, x0

    out = scratch.reshape(-1).view(np.float64).reshape(n, 4)
    for lane, x in enumerate((x0, x1, x2, x3)):
        x >>= _SHIFT11
        np.multiply(x, 2.0 ** -53, out=out[:, lane])
    return out
