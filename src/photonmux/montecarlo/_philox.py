"""Philox4x64-10 by block counter, vectorized in numpy.

Philox is counter-based (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11): block ``c`` of the stream is a pure function of ``c`` and
the key, so any word can be computed without drawing the ones before it.
``philox_doubles`` reproduces ``np.random.Philox(key=seed)`` bit for bit:
that generator's i-th block (i = 0, 1, ...) is counter i + 1, key (seed, 0).
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


def _mulhilo(a: np.ndarray, m: int):
    """High and low 64-bit words of the 128-bit product a * m, per element."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _MASK32, a >> _SHIFT32
    # Schoolbook on 32-bit halves; neither partial sum can pass 2**64 - 2**32.
    mid = a_hi * m_lo + ((a_lo * m_lo) >> _SHIFT32)
    low_carry = (mid & _MASK32) + a_lo * m_hi
    hi = a_hi * m_hi + (mid >> _SHIFT32) + (low_carry >> _SHIFT32)
    return hi, a * np.uint64(m)


def philox_doubles(key: int, counters: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1), shape (counters.size, 4), of the blocks at ``counters``.

    ``counters`` holds the low counter word; the three upper words are zero.
    They start as length-1 arrays, so the first rounds' products on them
    cost nothing per block.  Each output word x maps to (x >> 11) * 2**-53,
    as in ``Generator.random``.
    """
    zero = np.zeros(1, dtype=np.uint64)
    c0, c1, c2, c3 = np.asarray(counters, dtype=np.uint64), zero, zero, zero
    for r in range(_ROUNDS):
        k0 = np.uint64((key + r * _WEYL[0]) & _MASK64)
        k1 = np.uint64((r * _WEYL[1]) & _MASK64)
        hi0, lo0 = _mulhilo(c0, _MULTIPLIERS[0])
        hi1, lo1 = _mulhilo(c2, _MULTIPLIERS[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (np.stack((c0, c1, c2, c3), axis=-1) >> _SHIFT11) * 2.0 ** -53
