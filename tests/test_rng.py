"""Counter-based generator: bit-exactness against numpy's Philox and
purity of draws in (seed, lane, block)."""

import numpy as np
import pytest

from eihlab import rng
from eihlab.normal import std_normal_quantile

CHUNK = rng._CHUNK
_MAX = 2**64 - 1


def oracle_words(key, c0, c1) -> np.ndarray:
    """The four words of block (c0, c1, 0, 0) from ``np.random.Philox``.

    numpy increments its counter (with carry) before the first block, so
    it is handed the counter one step earlier; callers keep (c0, c1)
    nonzero, so the carry stops at c1.
    """
    before = [c0 - 1, c1, 0, 0] if c0 else [_MAX, c1 - 1, 0, 0]
    gen = np.random.Philox(counter=np.array(before, dtype=np.uint64),
                           key=np.array(key, dtype=np.uint64))
    return gen.random_raw(4)


def oracle_uniforms(seed, lane, block) -> np.ndarray:
    return rng._to_unit(oracle_words([seed, 0], block, lane)[:2])


def boundary_sample(n: int) -> list[int]:
    """Flat indices next to every chunk boundary below n, plus a few inside."""
    near = {0, n - 1} | {b + d for b in range(CHUNK, n, CHUNK) for d in (-1, 0, 1)}
    inside = np.random.default_rng(n).integers(0, n, size=5)
    return sorted(i for i in near | set(inside.tolist()) if 0 <= i < n)


def test_philox_matches_numpy_bit_generator():
    # numpy's Philox pre-increments the counter before producing its
    # first block, and counter/key must be handed over as uint64 arrays
    # (Python int lists are rounded through float64).
    gen = np.random.default_rng(7)
    for _ in range(50):
        counter = gen.integers(0, 2**64, size=4, dtype=np.uint64)
        key = gen.integers(0, 2**64, size=2, dtype=np.uint64)
        one = np.uint64(1)
        c0 = counter[0] + one
        c1 = counter[1] + one if c0 == 0 else counter[1]
        c2 = counter[2] + one if (c0 == 0 and c1 == 0) else counter[2]
        c3 = counter[3] + one if (c0 == 0 and c1 == 0 and c2 == 0) else counter[3]
        mine = rng.philox4x64((c0, c1, c2, c3), (int(key[0]), int(key[1])))
        ref = np.random.Philox(counter=counter, key=key).random_raw(4)
        assert np.array_equal(np.array([int(w) for w in mine], dtype=np.uint64), ref)


def test_philox_known_block():
    # frozen from np.random.Philox(counter=[5,6,7,8], key=[11,12]).random_raw(4),
    # whose first block is generated at counter [6,6,7,8]
    words = rng.philox4x64((6, 6, 7, 8), (11, 12))
    assert [int(w) for w in words] == [
        8100971602769469133,
        2109639848681571355,
        10123776418961152223,
        9622983785844837127,
    ]


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_uniforms_are_bit_exact(n):
    seed, block = 2**64 - 3, 5
    lanes = np.arange(n, dtype=np.uint64) + np.uint64(2**40)
    u = rng.uniform_pairs(seed, lanes, block)
    assert u.shape == (n, 2)
    # one unchunked call of the block function covers every lane
    words = rng.philox4x64((np.full(n, block, dtype=np.uint64), lanes, 0, 0), (seed, 0))
    assert np.array_equal(u, np.stack([rng._to_unit(words[0]), rng._to_unit(words[1])], -1))
    for i in boundary_sample(n):
        lane = int(lanes[i])
        ref = oracle_words([seed, 0], block, lane)
        assert np.array_equal([w[i] for w in words], ref)
        assert np.array_equal(u[i], rng._to_unit(ref[:2]))
        assert np.array_equal(u[i], rng.uniform_pairs(seed, lane, block))


def test_chunked_lane_block_grid_is_bit_exact():
    # the (lanes[:, None], blocks[None, :]) broadcast of the path sampler,
    # sized so that chunk boundaries fall inside rows
    n_lanes, n_blocks, seed = 37, 1000, 11
    lanes = np.arange(100, 100 + n_lanes, dtype=np.uint64)[:, None]
    blocks = np.arange(n_blocks, dtype=np.uint64)[None, :]
    grid = rng.uniform_pairs(seed, lanes, blocks)
    assert grid.shape == (n_lanes, n_blocks, 2) and n_lanes * n_blocks > 2 * CHUNK
    for row, lane in enumerate(lanes[:, 0]):
        assert np.array_equal(grid[row], rng.uniform_pairs(seed, lane, blocks[0]))
    for i in boundary_sample(n_lanes * n_blocks):
        row, block = divmod(i, n_blocks)
        lane = int(lanes[row, 0])
        assert np.array_equal(grid[row, block], oracle_uniforms(seed, lane, block))
        assert np.array_equal(grid[row, block], rng.uniform_pairs(seed, lane, block))
    assert np.array_equal(rng.normal_pairs(seed, lanes, blocks), std_normal_quantile(grid))


def test_scalar_lane():
    u = rng.uniform_pairs(3, 2**63 + 1, 0)
    assert u.shape == (2,)
    assert np.array_equal(u, oracle_uniforms(3, 2**63 + 1, 0))
    assert rng.normal_pairs(3, 2**63 + 1).shape == (2,)


def test_extreme_words_give_finite_opposite_normals():
    # 1 - 2^-54 is not a double: the top word's (k + 0.5) 2^-53 rounds to
    # 1.0 and is clamped to the largest double below one
    u = rng._to_unit(np.array([0, _MAX], dtype=np.uint64))
    assert u[0] == 2.0**-54 and u[1] == 1.0 - 2.0**-53
    z = std_normal_quantile(u)
    assert np.all(np.isfinite(z)) and z[0] < -8.0 and z[1] > 8.0
    # the quantile is exactly odd where 1 - p is exact
    assert std_normal_quantile(u[1]) == -std_normal_quantile(1.0 - u[1])


def test_normal_stream_is_frozen():
    # Stream "v2" (ndtri quantile).  These values pin the stream: changing
    # them changes every simulated number and needs a CHANGES.md note.
    frozen = {
        (42, 0, 0): (0.39597478407094183, -0.5295290645051615),
        (7, 123456789, 3): (1.7443359436611117, 1.001087450299867),
        (2**64 - 1, 2**40, 511): (-0.002076970608058607, 0.6709793595313832),
    }
    for (seed, lane, block), pair in frozen.items():
        assert tuple(rng.normal_pairs(seed, lane, block)) == pair


def test_vector_lanes_equal_scalar_calls():
    lanes = np.arange(0, 1000, 37)
    batch = rng.normal_pairs(99, lanes, 3)
    for i, lane in enumerate(lanes):
        single = rng.normal_pairs(99, int(lane), 3)
        assert np.array_equal(batch[i], single)


def test_draws_are_pure_in_seed_lane_block():
    full = rng.normal_pairs(5, np.arange(10_000))
    parts = np.concatenate([
        rng.normal_pairs(5, np.arange(0, 3_000)),
        rng.normal_pairs(5, np.arange(3_000, 9_999)),
        rng.normal_pairs(5, np.arange(9_999, 10_000)),
    ])
    assert np.array_equal(full, parts)


def test_streams_differ_across_seed_lane_block():
    a = rng.normal_pairs(1, np.arange(100))
    assert not np.array_equal(a, rng.normal_pairs(2, np.arange(100)))
    assert not np.array_equal(a, rng.normal_pairs(1, np.arange(100), 1))
    assert not np.array_equal(a[:50], a[50:])


def test_uniforms_strictly_inside_unit_interval():
    u = rng.uniform_pairs(3, np.arange(200_000))
    assert u.min() > 0.0 and u.max() < 1.0


def test_normal_pairs_moments():
    z = rng.normal_pairs(11, np.arange(200_000)).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2.0 * n)
    # the two coordinates of a pair are independent
    pairs = z.reshape(-1, 2)
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n / 2)
