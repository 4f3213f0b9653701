"""Counter-based random numbers from numpy's Philox4x64-10: normals on
stream "v4", uniforms on stream "v3".

Every draw is a pure function of ``(seed, lane, block)``, so a batch of
one million paths produces the same numbers whether it is generated in
one call, in chunks, or by eight workers racing each other.  ``lane``
indexes the path and ``block`` the step within the path; block 0 also
feeds single-shot terminal sampling.  Callers ask for a run of lanes at
one block, ``(first_lane, n_lanes, block)``; lanes, blocks and seeds lie
in ``[0, 2^64)``.

Normals ("v4") are numpy's ziggurat, ``Generator.standard_normal``
(Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000), on fixed tiles of
``_TILE`` lanes.  Tile ``t = lane // _TILE`` of block ``b`` is the
``Generator`` over a Philox with key ``(seed, 1)`` and counter ``(0, b,
t, 0)``, filled in lane order; lane ``k``'s pair is row ``k % _TILE``
of its tile.  The ziggurat takes a data-dependent number of raw words
per variate, so a lane's words cannot be addressed alone; but each tile
restarts from its own counter and fills sequentially, so a row depends
only on ``(seed, tile, block)`` and its place in the tile.  A read fills
each tile it touches up to its last requested lane (a prefix of the
fill is the first rows of the whole tile) and drops the lanes before
``first_lane``.  A fill moves counter word 0 by a few thousand, far from
a carry, so tiles never share a counter.  Splits at multiples of
``_TILE`` lanes (``CHUNK_PATHS``, ``SIMULATE_CHUNK_ROWS``) fill no tile
twice.

Uniforms ("v3") are the first two words of the block at key ``(seed,
0)`` and counter ``(lane, block, 0, 0)``, from the bit generator's
``random_raw``, mapped to open-interval uniforms ``_CHUNK`` lanes at a
time.  numpy increments counter word 0 before each block, so one call
yields a run of lanes; a run may not carry word 0 into the block word.
"""

from __future__ import annotations

import numpy as np

_LANES = 2**64
_TO_UNIT = float(2.0 ** -53)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_S11 = np.uint64(11)
_CHUNK = 16384
_TILE = 4096


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


def _check_run(seed: int, first_lane: int, n_lanes: int, block: int) -> None:
    if first_lane < 0 or n_lanes < 0 or first_lane + n_lanes > _LANES:
        raise ValueError(
            f"lanes [{first_lane}, {first_lane + n_lanes}) must lie in [0, 2^64)")
    if not 0 <= block < _LANES:
        raise ValueError(f"block {block} must lie in [0, 2^64)")
    if not 0 <= seed < _LANES:
        raise ValueError(f"seed {seed} must lie in [0, 2^64)")


def _philox(seed: int, first_lane: int, n_lanes: int, block: int) -> np.random.Philox:
    """Bit generator whose next block is counter (first_lane, block, 0, 0)."""
    _check_run(seed, first_lane, n_lanes, block)
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


def uniform_pairs(seed: int, first_lane: int, n_lanes: int, block: int = 0) -> np.ndarray:
    """Two open-interval uniforms per lane of the run, shape (n_lanes, 2)."""
    gen = _philox(seed, first_lane, n_lanes, block)
    out = np.empty((n_lanes, 2))
    for start in range(0, n_lanes, _CHUNK):
        stop = min(start + _CHUNK, n_lanes)
        out[start:stop] = _to_unit(gen.random_raw(4 * (stop - start)).reshape(-1, 4)[:, :2])
    return out


def normal_pairs(seed: int, first_lane: int, n_lanes: int, block: int = 0) -> np.ndarray:
    """Two independent N(0,1) variates per lane of the run, shape (n_lanes, 2)."""
    _check_run(seed, first_lane, n_lanes, block)
    out = np.empty((n_lanes, 2))
    bits = np.random.Philox(key=np.array([seed, 1], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    stop = first_lane + n_lanes
    for tile_start in range(first_lane - first_lane % _TILE, stop, _TILE):
        # uint64, because a Python int list is rounded through float64
        state["state"]["counter"] = np.array([0, block, tile_start // _TILE, 0],
                                             dtype=np.uint64)
        bits.state = state
        lo = max(first_lane, tile_start)
        if lo > tile_start:
            gen.standard_normal(2 * (lo - tile_start))
        hi = min(stop, tile_start + _TILE)
        gen.standard_normal(out=out[lo - first_lane:hi - first_lane])
    return out
