"""Counter-based random numbers from numpy's Philox4x64-10, stream "v4".

Every draw is a pure function of ``(seed, lane, block)``, so a batch of
one million paths produces the same numbers whether it is generated in
one call, in chunks, or by eight workers racing each other.  ``lane``
indexes the path and ``block`` the step within the path; block 0 also
feeds single-shot terminal sampling.  Callers ask for a run of lanes at
one block, ``(first_lane, n_lanes, block)``; lanes, blocks and seeds lie
in ``[0, 2^64)``.

Both draws are read from fixed tiles of ``_TILE`` lanes.  Tile ``t =
lane // _TILE`` of block ``b`` is the ``Generator`` over a Philox with
key ``(seed, word)`` and counter ``(0, b, t, 0)``, filled in lane order;
lane ``k``'s pair is row ``k % _TILE`` of its tile.  Normals are key
word 1 and numpy's ziggurat, ``Generator.standard_normal`` (Marsaglia
and Tsang, J. Stat. Softw. 5(8), 2000); uniforms are key word 0 and
``Generator.random``, on ``[0, 1)``.  The ziggurat takes a
data-dependent number of raw words per variate, so a lane's words
cannot be addressed alone; but each tile restarts from its own counter
and fills sequentially, so a row depends only on ``(seed, tile, block)``
and its place in the tile.  A read fills each tile it touches up to its
last requested lane (a prefix of the fill is the first rows of the
whole tile) and drops the lanes before ``first_lane``.  A fill moves
counter word 0 by a few thousand, far from a carry, so tiles never
share a counter.  Splits at multiples of ``_TILE`` lanes
(``CHUNK_PATHS``, ``SIMULATE_CHUNK_ROWS``) fill no tile twice.
"""

from __future__ import annotations

import numpy as np

_LANES = 2**64
_TILE = 4096


def check_paths(n_paths: int) -> None:
    """The one rule of a path count: one path at least, and no more than
    the stream's 2^64 lanes, one per path."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if n_paths > _LANES:
        raise ValueError("n_paths must be at most 2^64, the lanes of the random stream, "
                         f"got {n_paths}")


def _read_tiles(fill, word: int, seed: int, first_lane: int, n_lanes: int,
                block: int) -> np.ndarray:
    """The run's pairs, shape (n_lanes, 2), from the tiles of key (seed,
    word), each filled by the ``Generator`` method ``fill``."""
    if first_lane < 0 or n_lanes < 0 or first_lane + n_lanes > _LANES:
        raise ValueError(
            f"lanes [{first_lane}, {first_lane + n_lanes}) must lie in [0, 2^64)")
    if not 0 <= block < _LANES:
        raise ValueError(f"block {block} must lie in [0, 2^64)")
    if not 0 <= seed < _LANES:
        raise ValueError(f"seed {seed} must lie in [0, 2^64)")
    out = np.empty((n_lanes, 2))
    bits = np.random.Philox(key=np.array([seed, word], dtype=np.uint64))
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
            fill(gen, 2 * (lo - tile_start))
        hi = min(stop, tile_start + _TILE)
        fill(gen, out=out[lo - first_lane:hi - first_lane])
    return out


def uniform_pairs(seed: int, first_lane: int, n_lanes: int, block: int = 0) -> np.ndarray:
    """Two uniforms on [0, 1) per lane of the run, shape (n_lanes, 2)."""
    return _read_tiles(np.random.Generator.random, 0, seed, first_lane, n_lanes, block)


def normal_pairs(seed: int, first_lane: int, n_lanes: int, block: int = 0) -> np.ndarray:
    """Two independent N(0,1) variates per lane of the run, shape (n_lanes, 2)."""
    return _read_tiles(np.random.Generator.standard_normal, 1, seed, first_lane, n_lanes, block)
