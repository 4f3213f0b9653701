"""Counter-based generator: bit-exactness of both draws against numpy's
Generator on the stream's tiles, of the bit generator against a
pure-Python Philox, purity of draws in (seed, lane, block), the law of
the normals, lane range and memory."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from eihlab import rng
from eihlab.normal import std_normal_cdf, std_normal_quantile

TILE = rng._TILE
_MAX = 2**64 - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
# (key word, Generator method) of each draw
UNIFORM = (0, np.random.Generator.random)
NORMAL = (1, np.random.Generator.standard_normal)


def philox_reference(counter, key) -> list[int]:
    """Philox4x64-10 (Salmon et al., SC'11) on Python ints, one block."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = _M0 * x0, _M1 * x2
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & _MAX,
                          (p0 >> 64) ^ x3 ^ k1, p0 & _MAX)
        k0, k1 = (k0 + _W0) & _MAX, (k1 + _W1) & _MAX
    return [x0, x1, x2, x3]


def reference_tile(seed, word, fill, tile, block) -> np.ndarray:
    """All 4096 pairs of a tile: the Generator method ``fill`` over a
    Philox of key (seed, word) and counter (0, block, tile, 0), built here
    on its own and filled in one call."""
    bits = np.random.Philox(counter=np.array([0, block, tile, 0], dtype=np.uint64),
                            key=np.array([seed, word], dtype=np.uint64))
    return fill(np.random.Generator(bits), (TILE, 2))


def reference_run(seed, draw, first_lane, n_lanes, block) -> np.ndarray:
    """The run's rows cut from the whole tiles that hold it."""
    tiles = range(first_lane // TILE, (first_lane + n_lanes - 1) // TILE + 1)
    rows = np.concatenate([reference_tile(seed, *draw, t, block) for t in tiles])
    return rows[first_lane % TILE:first_lane % TILE + n_lanes]


def test_philox_matches_numpy_bit_generator():
    # the reference is itself checked against numpy's C Philox, on random
    # counters whose increment carries; numpy increments before its first
    # block, and takes counter and key as uint64 arrays
    gen = np.random.default_rng(7)
    for i in range(50):
        counter = gen.integers(0, 2**64, size=4, dtype=np.uint64)
        counter[: i % 4] = _MAX
        key = gen.integers(0, 2**64, size=2, dtype=np.uint64)
        value = sum(int(c) << (64 * j) for j, c in enumerate(counter)) + 1
        bumped = [(value >> (64 * j)) & _MAX for j in range(4)]
        ref = np.random.Philox(counter=counter, key=key).random_raw(4)
        assert philox_reference(bumped, [int(k) for k in key]) == [int(w) for w in ref]


def test_philox_known_block():
    # frozen from np.random.Philox(counter=[5,6,7,8], key=[11,12]).random_raw(4),
    # whose first block is generated at counter [6,6,7,8]
    frozen = [8100971602769469133, 2109639848681571355,
              10123776418961152223, 9622983785844837127]
    assert philox_reference((6, 6, 7, 8), (11, 12)) == frozen
    # the first raw block of the uniforms' tile 6 at block 6 under seed 11:
    # counter (0, 6, 6, 0), so generated at (1, 6, 6, 0); Generator.random
    # keeps the top 53 bits of one word per uniform, so the tile's first two
    # lanes are this block
    words = [17119443820859275890, 5506132445727923523,
             13557492509912892305, 7237777241720134442]
    assert philox_reference((1, 6, 6, 0), (11, 0)) == words
    assert rng.uniform_pairs(11, 6 * TILE, 2, 6).ravel().tolist() == [
        (w >> 11) * 2.0**-53 for w in words]


@pytest.mark.parametrize("lane, block", [
    (0, 0), (0, 1), (0, 7), (1, 0), (2**64 - 2, 0), (2**64 - 2, 9),
    (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1),
])
def test_single_lane_matches_reference(lane, block):
    # a one-lane read of uniforms fills its tile up to the lane and keeps
    # the last row; the top lanes end the range
    for seed in (0, 2**64 - 1):
        u = rng.uniform_pairs(seed, lane, 1, block)
        assert u.shape == (1, 2)
        assert np.array_equal(u, reference_run(seed, UNIFORM, lane, 1, block))


@pytest.mark.parametrize("n", [4 * TILE - 1, 4 * TILE, 4 * TILE + 1, 12 * TILE + 5])
def test_chunked_uniforms_are_bit_exact(n):
    # a run read tile by tile that ends at the last lane, and so starts
    # mid-tile unless n is a multiple of the tile
    first = 2**64 - n
    for seed in (0, 2**64 - 1):
        for block in (0, 5, 2**64 - 1):
            u = rng.uniform_pairs(seed, first, n, block)
            assert u.shape == (n, 2)
            assert np.array_equal(u, reference_run(seed, UNIFORM, first, n, block))
            for i in (0, 1, n - 1):
                assert np.array_equal(u[i], rng.uniform_pairs(seed, first + i, 1, block)[0])
            # a run that starts mid-way sees the same lanes
            assert np.array_equal(
                rng.uniform_pairs(seed, first + TILE - 2, n - TILE + 2, block), u[TILE - 2:])


def test_chunked_lane_block_grid_is_bit_exact():
    # the path sampler's layout: one run of lanes per block, run longer
    # than a tile, lanes at the tile edges and deep inside
    seed, n = 11, 4 * TILE + 40
    for block in (0, 1, 2, 511, 2**40):
        run = rng.uniform_pairs(seed, 0, n, block)
        for lane in (0, 1, 2, 37, TILE - 1, TILE, 4 * TILE, n - 1):
            assert np.array_equal(run[lane], reference_run(seed, UNIFORM, lane, 1, block)[0])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("first, n", [
    (0, TILE - 1), (0, TILE + 1), (TILE - 1, 2), (TILE + 17, 100),
    (5, 3 * TILE),
])
def test_uniform_runs_equal_the_reference_tiles(seed, first, n):
    # runs that start and end mid-tile or cross one or more tile edges;
    # test_chunked_uniforms_are_bit_exact ends runs at the last lane
    for block in (0, 5, 2**64 - 1):
        assert np.array_equal(rng.uniform_pairs(seed, first, n, block),
                              reference_run(seed, UNIFORM, first, n, block))


def test_scalar_lane():
    u = rng.uniform_pairs(3, 2**63 + 1, 1)
    assert u.shape == (1, 2)
    assert np.array_equal(u, reference_run(3, UNIFORM, 2**63 + 1, 1, 0))
    assert rng.normal_pairs(3, 2**63 + 1, 1).shape == (1, 2)


def test_uniform_stream_v4_is_frozen():
    # Stream "v4" for uniforms (Generator.random on tiles of 4096 lanes,
    # Philox key (seed, 0), counter (0, block, tile, 0)).  These values
    # pin the lemma table's triples: changing them needs a CHANGES.md note.
    frozen = {
        (42, 0, 0): (0.8201981478608876, 0.18924562408645496),
        (7, 123456789, 3): (0.27905688835104425, 0.3252904048775409),
        (2**64 - 1, 2**40, 511): (0.720676660803374, 0.26922892875880267),
        (0, 4096, 0): (0.6436367332217984, 0.06352798769864854),
        (2**64 - 1, 2**64 - 1, 2**64 - 1): (0.7423982771161222, 0.2841960045189965),
    }
    for (seed, lane, block), pair in frozen.items():
        assert tuple(rng.uniform_pairs(seed, lane, 1, block)[0]) == pair


def test_normal_stream_v4_is_frozen():
    # Stream "v4" (numpy's ziggurat on tiles of 4096 lanes, Philox key
    # (seed, 1), counter (0, block, tile, 0)).  These values pin the
    # stream: changing them changes every simulated number and needs a
    # CHANGES.md note.
    frozen = {
        (42, 0, 0): (0.866892464921677, 0.9355636054453706),
        (7, 123456789, 3): (0.7846509999568219, -0.02739701469424072),
        (2**64 - 1, 2**40, 511): (1.5199422519401318, 0.6080256158293907),
        (0, 4096, 0): (0.634140050997565, -1.3225477653421815),
        (2**64 - 1, 2**64 - 1, 2**64 - 1): (1.087537456008049, 0.5242787719445957),
    }
    for (seed, lane, block), pair in frozen.items():
        assert tuple(rng.normal_pairs(seed, lane, 1, block)[0]) == pair


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("lane, block", [
    (0, 0), (1, 0), (TILE - 1, 0), (TILE, 0), (TILE + 1, 0), (TILE + 1, 7),
    (2**63 + 1, 2), (2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1),
])
def test_normal_lane_is_its_row_of_the_reference_tile(seed, lane, block):
    # a one-lane read fills its tile up to the lane and keeps the last row
    z = rng.normal_pairs(seed, lane, 1, block)
    assert z.shape == (1, 2)
    assert np.array_equal(z, reference_run(seed, NORMAL, lane, 1, block))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("first, n", [
    (0, TILE - 1), (0, TILE), (0, TILE + 1), (TILE - 1, 2), (TILE - 1, TILE + 2),
    (5, 3 * TILE), (TILE + 17, 100), (3 * TILE - 1, 1), (2**64 - TILE - 3, TILE + 3),
])
def test_normal_runs_equal_the_reference_tiles(seed, first, n):
    # runs that start and end mid-tile, cross one or more tile edges, or
    # end at the last lane
    for block in (0, 5, 2**64 - 1):
        assert np.array_equal(rng.normal_pairs(seed, first, n, block),
                              reference_run(seed, NORMAL, first, n, block))


def test_normal_stream_is_not_the_uniform_quantile():
    # the two draws have their own keys, (seed, 1) and (seed, 0)
    u = rng.uniform_pairs(3, 0, 1000)
    assert not np.any(rng.normal_pairs(3, 0, 1000) == std_normal_quantile(u))


def test_vector_lanes_equal_scalar_calls():
    batch = rng.normal_pairs(99, 0, 1000, 3)
    for lane in range(0, 1000, 37):
        assert np.array_equal(batch[lane], rng.normal_pairs(99, lane, 1, 3)[0])


def test_draws_are_pure_in_seed_lane_block():
    full = rng.normal_pairs(5, 0, 10_000)
    parts = np.concatenate([
        rng.normal_pairs(5, 0, 3_000),
        rng.normal_pairs(5, 3_000, 6_999),
        rng.normal_pairs(5, 9_999, 1),
    ])
    assert np.array_equal(full, parts)


def test_streams_differ_across_seed_lane_block():
    a = rng.normal_pairs(1, 0, 100)
    assert not np.array_equal(a, rng.normal_pairs(2, 0, 100))
    assert not np.array_equal(a, rng.normal_pairs(1, 0, 100, 1))
    assert not np.array_equal(a[:50], a[50:])


def test_uniforms_lie_in_the_half_open_unit_interval():
    # Generator.random is (w >> 11) 2^-53: 0 is a value it can take, 1 is not
    u = rng.uniform_pairs(3, 0, 200_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normal_pairs_moments():
    z = rng.normal_pairs(11, 0, 200_000).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2.0 * n)
    # the two coordinates of a pair are independent
    pairs = z.reshape(-1, 2)
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n / 2)


def wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    p_hat, z_sq = successes / trials, z * z
    center = (p_hat + z_sq / (2 * trials)) / (1 + z_sq / trials)
    margin = z / (1 + z_sq / trials) * math.sqrt(
        p_hat * (1 - p_hat) / trials + z_sq / (4 * trials * trials))
    return center - margin, center + margin


def test_normals_pass_a_ks_test():
    # 10^6 normals over 123 tiles, against scipy's N(0, 1)
    z = rng.normal_pairs(2024, 0, 500_000).ravel()
    assert stats.kstest(z, "norm").pvalue > 1e-3


def test_tail_beyond_four_sigma_has_its_mass():
    # the ziggurat's own tail sampler covers |z| > 3.654; 10^7 normals
    # expect 633 beyond 4
    beyond = trials = 0
    for block in range(10):
        z = rng.normal_pairs(4, 0, 500_000, block)
        beyond += int(np.count_nonzero(np.abs(z) > 4.0))
        trials += z.size
    low, high = wilson_interval(beyond, trials, 5.0)
    assert low <= 2.0 * std_normal_cdf(-4.0) <= high


def test_pair_coordinates_are_independent():
    # a chi-square test of the deciles of the two coordinates, and the
    # correlation of their squares, which a dependence of scale moves
    z = rng.normal_pairs(91, 0, 500_000)
    cells = np.digitize(z, std_normal_quantile(np.arange(1, 10) / 10.0))
    table = np.bincount(10 * cells[:, 0] + cells[:, 1], minlength=100).reshape(10, 10)
    assert stats.chi2_contingency(table).pvalue > 1e-3
    corr = np.corrcoef(z[:, 0] ** 2, z[:, 1] ** 2)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(len(z))


@pytest.mark.parametrize("first_lane, n_lanes, block", [
    (-1, 1, 0), (-2, 3, 0), (2**64 - 2, 3, 0), (2**64, 1, 0), (0, -1, 0),
    (0, 1, -1), (0, 1, 2**64),
])
def test_lanes_outside_the_counter_range_are_rejected(first_lane, n_lanes, block):
    for draw in (rng.uniform_pairs, rng.normal_pairs):
        with pytest.raises(ValueError, match="must lie in"):
            draw(1, first_lane, n_lanes, block)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_the_key_word_are_rejected(seed):
    for draw in (rng.uniform_pairs, rng.normal_pairs):
        with pytest.raises(ValueError, match="must lie in"):
            draw(seed, 0, 1)


@pytest.mark.parametrize("draw", [rng.normal_pairs, rng.uniform_pairs],
                         ids=lambda draw: draw.__name__)
def test_peak_memory_is_the_output_plus_2mb(draw):
    # a read fills its output tile by tile, with no full-size temporary
    n = 10**6
    draw(3, 0, 4 * TILE)  # warm numpy's caches
    tracemalloc.start()
    try:
        z = draw(3, 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.nbytes == 16 * n
    assert peak <= z.nbytes + 2_000_000
