"""Counter-based random numbers: stream "v3", Philox4x64-10 from numpy.

Every draw is a pure function of ``(seed, lane, block)``, so a batch of
one million paths produces the same numbers whether it is generated in
one call, in chunks, or by eight workers racing each other.  ``lane``
indexes the path and ``block`` the step within the path; block 0 also
feeds single-shot terminal sampling.

The block function is numpy's C Philox 4x64 with 10 rounds, with key
``(seed, 0)`` and counter ``(lane, block, 0, 0)``.  numpy's
``Generator`` layer consumes a data-dependent number of raw words per
normal variate, which would break the pure-function contract, so only
the bit generator's ``random_raw`` is used: it is a pure function of
counter and key.  numpy increments counter word 0 before each block,
so one call yields a run of consecutive lanes at one block; callers
ask for such runs, ``(first_lane, n_lanes, block)``.  A run may not
carry word 0 into the block word: lanes lie in ``[0, 2^64)``.

The first two words of each block map to open-interval uniforms, and
``normal_pairs`` applies the normal quantile to them.  Both walk the run
in chunks of ``_CHUNK`` lanes and write each chunk straight into the
output, so the working memory (about 1 MB) does not grow with the run.
"""

from __future__ import annotations

import numpy as np

from .normal import std_normal_quantile

_LANES = 2**64
_TO_UNIT = float(2.0 ** -53)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_S11 = np.uint64(11)
_CHUNK = 16384


def _to_unit(words: np.ndarray) -> np.ndarray:
    # 53-bit uniform strictly inside (0, 1).  Above 1/2 the + 0.5 rounds
    # to even, and the top word would round to exactly 1.0: clamp it to
    # the largest double below one.
    u = ((words >> _S11).astype(np.float64) + 0.5) * _TO_UNIT
    return np.minimum(u, _BELOW_ONE, out=u)


def check_paths(n_paths: int) -> None:
    """The one rule of a path count: one path at least, and no more than
    the stream's 2^64 lanes, one per path."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if n_paths > _LANES:
        raise ValueError("n_paths must be at most 2^64, the lanes of the random stream, "
                         f"got {n_paths}")


def _philox(seed: int, first_lane: int, n_lanes: int, block: int) -> np.random.Philox:
    """Bit generator whose next block is counter (first_lane, block, 0, 0)."""
    if first_lane < 0 or n_lanes < 0 or first_lane + n_lanes > _LANES:
        raise ValueError(
            f"lanes [{first_lane}, {first_lane + n_lanes}) must lie in [0, 2^64)")
    if not 0 <= block < _LANES:
        raise ValueError(f"block {block} must lie in [0, 2^64)")
    if not 0 <= seed < _LANES:
        raise ValueError(f"seed {seed} must lie in [0, 2^64)")
    # numpy increments the counter, carrying upward, before each block,
    # so it starts one counter early; uint64 arrays, because Python int
    # lists are rounded through float64
    if first_lane:
        before = [first_lane - 1, block, 0, 0]
    elif block:
        before = [_LANES - 1, block - 1, 0, 0]
    else:
        before = [_LANES - 1] * 4
    return np.random.Philox(counter=np.array(before, dtype=np.uint64),
                            key=np.array([seed, 0], dtype=np.uint64))


def _pairs(seed: int, first_lane: int, n_lanes: int, block: int, transform) -> np.ndarray:
    gen = _philox(seed, first_lane, n_lanes, block)
    out = np.empty((n_lanes, 2))
    for start in range(0, n_lanes, _CHUNK):
        stop = min(start + _CHUNK, n_lanes)
        words = gen.random_raw(4 * (stop - start)).reshape(-1, 4)
        out[start:stop] = transform(_to_unit(words[:, :2]))
    return out


def uniform_pairs(seed: int, first_lane: int, n_lanes: int, block: int = 0) -> np.ndarray:
    """Two open-interval uniforms per lane of the run, shape (n_lanes, 2)."""
    return _pairs(seed, first_lane, n_lanes, block, lambda u: u)


def normal_pairs(seed: int, first_lane: int, n_lanes: int, block: int = 0) -> np.ndarray:
    """Two independent N(0,1) variates per lane of the run, shape (n_lanes, 2)."""
    return _pairs(seed, first_lane, n_lanes, block, std_normal_quantile)
