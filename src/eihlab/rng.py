"""Counter-based random numbers (vectorized Philox4x64-10).

Every draw is a pure function of ``(seed, lane, block)``, so a batch of
one million paths produces the same numbers whether it is generated in
one call, in chunks, or by eight workers racing each other.  ``lane``
indexes the path and ``block`` the step within the path; block 0 also
feeds single-shot terminal sampling.

The generator is the Philox 4x64 bijection with 10 rounds.  numpy ships
the same algorithm (``np.random.Philox``), but its ``Generator`` layer
consumes a data-dependent number of raw words per normal variate, which
breaks the pure-function contract; here the raw words are mapped to
normals through the inverse CDF instead.  The numpy bit generator is
kept as a cross-check oracle in the test suite.

The ten rounds run in place on seven preallocated uint64 buffers, and
``uniform_pairs`` walks its lanes in fixed chunks of ``_CHUNK``, writing
each chunk's uniforms straight into the float output.  The generator's
working memory is therefore bounded by the chunk (about 1 MB, so it
stays in cache) whatever the batch size; only the output grows with it.
Chunking cannot change a value, since each lane is computed on its own.
"""

from __future__ import annotations

import numpy as np

from .normal import std_normal_quantile

_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_TO_UNIT = float(2.0 ** -53)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_CHUNK = 16384


def _mulhilo(a: int, b: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    # 64x64 -> 128 bit product via 32-bit limbs, everything wrapping mod
    # 2^64.  The high word lands in ``hi`` and the low word replaces ``b``;
    # ``t`` and ``u`` are scratch.  ``b`` is read until the last step, so
    # b_hi is taken from it twice instead of holding a fourth buffer.
    a_lo = np.uint64(a & 0xFFFFFFFF)
    a_hi = np.uint64(a >> 32)
    np.bitwise_and(b, _MASK32, out=t)
    np.multiply(t, a_lo, out=hi)
    np.right_shift(hi, _S32, out=hi)
    np.multiply(t, a_hi, out=t)
    np.add(t, hi, out=t)                 # mid = a_hi*b_lo + (a_lo*b_lo >> 32)
    np.bitwise_and(t, _MASK32, out=hi)
    np.right_shift(t, _S32, out=t)
    np.right_shift(b, _S32, out=u)
    np.multiply(u, a_lo, out=u)
    np.add(hi, u, out=hi)                # mid2 = a_lo*b_hi + (mid & mask)
    np.right_shift(hi, _S32, out=hi)
    np.add(hi, t, out=hi)
    np.right_shift(b, _S32, out=u)
    np.multiply(u, a_hi, out=u)
    np.add(hi, u, out=hi)                # a_hi*b_hi + (mid >> 32) + (mid2 >> 32)
    np.multiply(b, np.uint64(a), out=b)


def philox4x64(counter, key) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox4x64-10 block function.

    ``counter`` is a 4-tuple and ``key`` a 2-tuple of uint64 scalars or
    equally-shaped arrays; returns the four output words.
    """
    words = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    shape = words[0].shape
    # private 1-d copies: the rounds overwrite them, and array (not scalar)
    # integer arithmetic wraps mod 2^64 silently, as the algorithm needs
    x0, x1, x2, x3 = (np.array(w, dtype=np.uint64, ndmin=1) for w in words)
    hi, t, u = (np.empty_like(x0) for _ in range(3))
    k0 = int(key[0]) & _U64_MASK
    k1 = int(key[1]) & _U64_MASK
    for _ in range(10):
        _mulhilo(_M0, x0, hi, t, u)
        np.bitwise_xor(x3, hi, out=x3)
        np.bitwise_xor(x3, np.uint64(k1), out=x3)
        _mulhilo(_M1, x2, hi, t, u)
        np.bitwise_xor(x1, hi, out=x1)
        np.bitwise_xor(x1, np.uint64(k0), out=x1)
        # (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        x0, x1, x2, x3 = x1, x2, x3, x0
        k0 = (k0 + _W0) & _U64_MASK
        k1 = (k1 + _W1) & _U64_MASK
    return tuple(w.reshape(shape) for w in (x0, x1, x2, x3))


def _to_unit(words: np.ndarray) -> np.ndarray:
    # 53-bit uniform strictly inside (0, 1).  Above 1/2 the + 0.5 rounds
    # to even, and the top word would round to exactly 1.0: clamp it to
    # the largest double below one.
    u = ((words >> _S11).astype(np.float64) + 0.5) * _TO_UNIT
    return np.minimum(u, _BELOW_ONE, out=u)


def uniform_pairs(seed: int, lane, block=0) -> np.ndarray:
    """Two open-interval uniforms per (seed, lane, block), shape (..., 2)."""
    lane_arr, block_arr = np.broadcast_arrays(
        np.asarray(lane, dtype=np.uint64), np.asarray(block, dtype=np.uint64)
    )
    out = np.empty(lane_arr.shape + (2,))
    flat = out.reshape(-1, 2)
    for start in range(0, len(flat), _CHUNK):
        stop = min(start + _CHUNK, len(flat))
        w0, w1, _, _ = philox4x64(
            (block_arr.flat[start:stop], lane_arr.flat[start:stop], 0, 0), (seed, 0))
        flat[start:stop, 0] = _to_unit(w0)
        flat[start:stop, 1] = _to_unit(w1)
    return out


def normal_pairs(seed: int, lane, block=0) -> np.ndarray:
    """Two independent N(0,1) variates per (seed, lane, block), shape (..., 2)."""
    u = uniform_pairs(seed, lane, block)
    return np.asarray(std_normal_quantile(u))
