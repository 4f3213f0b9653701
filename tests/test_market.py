"""Market reduction and exact samplers."""

import hashlib
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest
from scipy import stats

from eihlab import rng, strategies
from eihlab.analytic import log_thresholds
from eihlab.market import (
    _in_exp_range,
    MarketParams,
    Measure,
    TerminalSample,
    drift_pair,
    price_steps,
    reduce_dimension,
    simulate_paths,
    simulate_terminal,
    step_prices,
)

from conftest import (SET_A, bond_delta_norm, log_ratio_law, make_degenerate_equal_sigmas,
                      paths_from_increments, random_market)


class TestParamsValidation:
    def test_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.0, 0.0), (0.2, 0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.2, 0.0), (0.0, 0.0), 0.0, 1.0)

    def test_rejects_equal_sigmas(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.2, 0.1), (0.2, 0.1), 0.0, 1.0)

    @pytest.mark.parametrize("sigma_i, sigma_s, name", [
        ((0.2, 0.0), (0.2, 1e-300), "sigma_s - sigma_i"),
        ((1e200, 0.0), (0.0, 1e200), "sigma_i"),
        ((1e-200, 0.0), (0.2, 0.1), "sigma_i"),
        # finite norms whose spread overflows, collinear and not
        ((1e154, 0.0), (-1e154, 0.0), "sigma_s - sigma_i"),
        ((1e154, 0.0), (0.0, 1.3e154), "sigma_s - sigma_i"),
        # the messages keep their order: sigma_i's, sigma_s's, the spread's
        ((0.0, 0.0), (0.0, 0.0), "sigma_i"),
        ((0.2, 0.0), (0.0, 0.0), "sigma_s"),
        ((0.2, 0.0), (1e200, 0.0), "sigma_s"),
    ], ids=["zero-spread", "overflow", "underflow", "spread-overflow-opposite",
            "spread-overflow-orthogonal", "both-zero", "zero-stock", "stock-overflow"])
    def test_rejects_pairs_whose_norms_vanish_or_overflow(self, sigma_i, sigma_s, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"the norm of {name} must be finite and positive")):
                MarketParams(0.0, 0.0, sigma_i, sigma_s, 0.0, 1.0)

    @pytest.mark.parametrize("sigma", [0.2, 1e-13, 1e-150])
    def test_collinearity_is_relative_to_the_norm(self, sigma):
        # an orthogonal pair of small norms is not collinear; equal vectors
        # of the same norms still are, and have no spread
        p = MarketParams(0.0, 0.0, (sigma, 0.0), (0.0, sigma), 0.0, 1.0)
        assert p.delta_norm == pytest.approx(math.sqrt(2.0) * sigma, rel=1e-15)
        with pytest.raises(ValueError, match=re.escape(
                "the norm of sigma_s - sigma_i must be finite and positive")):
            MarketParams(0.0, 0.0, (sigma, 0.0), (sigma, 0.0), 0.0, 1.0)

    def test_rejects_single_driver(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.2,), (0.1,), 0.0, 1.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.2, 0.0), (0.1, 0.1), 0.0, 0.0)

    @pytest.mark.parametrize("name", ["mu_i", "mu_s", "r", "t"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_scalars(self, name, bad):
        kwargs = dict(mu_i=0.0, mu_s=0.0, sigma_i=(0.2, 0.0), sigma_s=(0.1, 0.1), r=0.0, t=1.0)
        kwargs[name] = bad
        with pytest.raises(ValueError, match="finite"):
            MarketParams(**kwargs)

    @pytest.mark.parametrize("name", ["sigma_i", "sigma_s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_sigmas(self, name, bad):
        # before any norm or bar is formed, so no bar is ever NaN or inf
        kwargs = dict(mu_i=0.0, mu_s=0.0, sigma_i=(0.2, 0.0), sigma_s=(0.1, 0.1), r=0.0, t=1.0)
        kwargs[name] = (bad, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                MarketParams(**kwargs)

    def test_initial_prices_pinned(self, set_a):
        assert set_a.I0 == 1.0 and set_a.S0 == 1.0


class TestReduceDimension:
    def test_already_two_dimensional(self):
        p = MarketParams(0.0, 0.0, (0.2, 0.0), (0.1, 0.1), 0.0, 1.0)
        np.testing.assert_allclose(p.bars[0], [0.2, 0.0], atol=1e-15)
        np.testing.assert_allclose(p.bars[1], [0.1, 0.1], atol=1e-15)

    def test_three_driver_example(self):
        p = MarketParams(0.0, 0.0, (0.15, 0.05, 0.0), (0.25, -0.10, 0.0), 0.0, 1.0)
        spread = np.linalg.norm(p.bars[1] - p.bars[0])
        assert spread == pytest.approx(math.sqrt(0.0325), abs=1e-12)

    def test_collinear_pair(self):
        p = MarketParams(0.0, 0.0, (0.2, 0.0), (0.4, 0.0), 0.0, 1.0)
        np.testing.assert_allclose(p.bars[0], [0.2, 0.0], atol=1e-15)
        np.testing.assert_allclose(p.bars[1], [0.4, 0.0], atol=1e-15)

    def test_preserves_geometry_on_random_inputs(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            p = random_market(gen)
            for bar, orig in ((p.bars[0], p.sigma_i), (p.bars[1], p.sigma_s)):
                assert np.linalg.norm(bar) == pytest.approx(
                    np.linalg.norm(orig), rel=1e-12)
            assert p.bars[0] @ p.bars[1] == pytest.approx(
                p.sigma_i @ p.sigma_s, rel=1e-12, abs=1e-15)

    def test_bond_spread_norm_is_the_bond_pairs(self):
        # the bond is the stock of zero volatility: its components and the
        # recover event take norm_i, the float the bond's own coordinates
        # ([norm_i, 0], [0, 0]) give, also where norm_i's square is subnormal
        gen = np.random.default_rng(5)
        markets = [random_market(gen) for _ in range(200)] + [
            MarketParams(0.05, 0.06, (norm, 0.0), (0.0, 0.2), 0.02, 5.0)
            for norm in (1e-150, 1e-160, 1e150)]
        for p in markets:
            bond = bond_delta_norm(p)
            comps = (strategies.build_index_vs_bond(p, 0.05).components
                     + strategies.build_bond_one_sided(p, 0.05).components
                     + strategies.build_capm_composite(p, 0.05, "cor_3delta").components)
            norms = {c.delta_norm for c in comps if c.underlying is strategies.Underlying.BOND}
            assert norms == {bond}
            log_a, log_b = log_thresholds(bond, p.t, 0.05)
            x = np.array([log_a, log_b, 0.5 * (log_a + log_b)])
            x = np.concatenate([x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf)])
            assert np.array_equal(strategies.event_recover(p, 0.05, x),
                                  (x > log_a) & (x < log_b))

    # pairs whose bars are equal, and bars whose spread overflows
    @pytest.mark.parametrize("sigma_i, sigma_s", [
        ((0.2, 0.0), (0.2, 0.0)), ((1e154, 0.0), (-1e154, 0.0)),
    ], ids=["equal", "spread-overflow"])
    def test_constructor_rejects_pairs_without_a_spread(self, sigma_i, sigma_s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "the norm of sigma_s - sigma_i must be finite and positive")):
                MarketParams(0.0, 0.0, sigma_i, sigma_s, 0.0, 1.0)

    def test_bars_are_read_only(self, set_a):
        for bar in (set_a.bars, set_a.bars[0], set_a.bars[1]):
            with pytest.raises(ValueError, match="read-only"):
                bar[0] = 1.0


def _direct_geometry(p: MarketParams) -> dict:
    """Each stored quantity as the expression its readers used inline."""
    return {
        "norm_i": float(np.linalg.norm(p.sigma_i)),
        "norm_s": float(np.linalg.norm(p.sigma_s)),
        "norm_i_sq": float(p.sigma_i @ p.sigma_i),
        "cross": float(p.sigma_s @ p.sigma_i),
    }


def _cached_geometry(p: MarketParams) -> dict:
    return {name: getattr(p, name) for name in _direct_geometry(p)}


class TestCachedGeometry:
    def test_cached_scalars_equal_direct_expressions_bitwise(self):
        gen = np.random.default_rng(3)
        spread_differs = square_differs = 0
        for _ in range(500):
            p = random_market(gen)
            assert _cached_geometry(p) == _direct_geometry(p)
            assert p.delta_norm == float(np.linalg.norm(p.bars[1] - p.bars[0]))
            assert reduce_dimension(p) is p.delta_norm
            spread_differs += float(np.linalg.norm(p.sigma_s - p.sigma_i)) != p.delta_norm
            square_differs += p.norm_i_sq != p.norm_i**2
        # the look-alikes that drift bounds once read differ from the stored
        # floats, which is why a bound reads the stored ones
        assert spread_differs > 0 and square_differs > 0

    def test_replace_recomputes(self, set_a):
        before = _cached_geometry(set_a)
        bars, delta_norm = set_a.bars, set_a.delta_norm
        moved = replace(set_a, sigma_s=np.array([0.05, 0.3]))
        assert _cached_geometry(moved) == _direct_geometry(moved)
        assert _cached_geometry(moved) != before
        assert moved.bars is not bars
        assert reduce_dimension(moved) is moved.delta_norm
        assert moved.delta_norm != delta_norm
        assert _cached_geometry(set_a) == before

    @pytest.mark.parametrize("sigma_i, factor", [((0.1, 0.2, 0.3), -2.0), ((0.15, 0.05), 0.7)])
    def test_collinear_pair_takes_the_signed_norm(self, sigma_i, factor):
        # the projection and the remainder differ from (+-norm_s, 0) in the
        # last bits here, so only the collinear branch gives these bars
        sigma_s = factor * np.array(sigma_i)
        p = MarketParams(0.0, 0.0, sigma_i, sigma_s, 0.0, 1.0)
        e1 = p.sigma_i / p.norm_i
        proj = float(p.sigma_s @ e1)
        assert (proj, float(np.linalg.norm(p.sigma_s - proj * e1))) != (
            math.copysign(p.norm_s, factor), 0.0)
        assert p.bars[1].tolist() == [math.copysign(p.norm_s, factor), 0.0]
        assert p.bars[0].tolist() == [p.norm_i, 0.0]


_EAGER_GEOMETRY = ("norm_i", "norm_s", "norm_i_sq", "cross", "bars", "delta_norm")


def _pinned_geometry(sigma_i: np.ndarray, sigma_s: np.ndarray) -> dict:
    """The pair's geometry as the package computed it, one float per
    expression, before the constructor stored it."""
    def norm(v):
        return math.sqrt(float(v.dot(v)))

    norm_i, norm_s = norm(sigma_i), norm(sigma_s)
    e1 = sigma_i / norm_i
    proj = float(sigma_s @ e1)
    rem_norm = norm(sigma_s - proj * e1)
    if rem_norm <= 1e-12 * norm_s:
        s_bar = [math.copysign(norm_s, proj), 0.0]
    else:
        s_bar = [proj, rem_norm]
    return {
        "norm_i": norm_i, "norm_s": norm_s,
        "norm_i_sq": float(sigma_i @ sigma_i), "cross": float(sigma_s @ sigma_i),
        "bars": [[norm_i, 0.0], s_bar],
        "delta_norm": norm(np.array(s_bar) - np.array([norm_i, 0.0])),
    }


def _stored_geometry(p: MarketParams) -> dict:
    return {
        **{name: getattr(p, name) for name in _EAGER_GEOMETRY if name != "bars"},
        "bars": p.bars.tolist(),
    }


def _pin_markets() -> list[MarketParams]:
    gen = np.random.default_rng(20)
    markets = [MarketParams(**SET_A)] + [random_market(gen) for _ in range(200)]
    for sigma_i, factor in [((0.1, 0.2, 0.3), -2.0), ((0.15, 0.05), 0.7), ((0.3, -0.1), 3.0),
                            ((0.2, 0.1, -0.05, 0.4), -1.0), ((1e-3, 0.5), 1.5)]:
        markets.append(MarketParams(0.05, 0.06, sigma_i, factor * np.array(sigma_i), 0.02, 5.0))
    # a remainder of 5e-13 lies under an absolute floor of 1e-12 but over
    # the relative one, 1e-12 * norm_s = 5e-14: the pair is not collinear
    sigma_i = np.array([0.06, 0.08])
    markets.append(MarketParams(0.05, 0.06, sigma_i, 0.5 * sigma_i + 5e-13 * np.array([-0.8, 0.6]),
                                0.02, 5.0))
    return markets


class TestGeometryPin:
    """The constructor's geometry keeps every bit of the expressions the
    package has always used, and is stored on the instance, not behind a
    descriptor."""

    def test_equals_the_pinned_expressions(self):
        for p in _pin_markets():
            assert _stored_geometry(p) == _pinned_geometry(p.sigma_i, p.sigma_s)

    def test_replace_keeps_the_geometry(self):
        for p in _pin_markets()[:20]:
            moved = replace(p, mu_s=p.mu_s + 0.01)
            assert moved.mu_s == p.mu_s + 0.01
            assert _stored_geometry(moved) == _stored_geometry(p)

    def test_geometry_is_stored_at_construction(self, set_a):
        # one float per quantity: no look-alike is stored beside them
        assert set(vars(set_a)) == {f.name for f in fields(MarketParams)} | set(_EAGER_GEOMETRY)
        for name in _EAGER_GEOMETRY:
            assert not hasattr(MarketParams, name)
        # nothing is computed on first use
        assert not any(isinstance(v, cached_property) for v in vars(MarketParams).values())


class TestSimulateTerminal:
    def test_identical_dynamics_give_identical_prices(self, set_a):
        degenerate = make_degenerate_equal_sigmas(set_a)
        out = simulate_terminal(degenerate, Measure.PHYSICAL, 10_000, 3)
        assert np.array_equal(out.index, out.stock)

    def test_physical_log_ratio_mean(self, set_a):
        n = 10**6
        out = simulate_terminal(set_a, Measure.PHYSICAL, n, 42)
        log_ratio = np.log(out.stock / out.index)
        se = log_ratio.std(ddof=1) / math.sqrt(n)
        assert abs(log_ratio.mean() - (-0.3375)) <= 3.0 * se

    def test_risk_neutral_discounted_mean_is_one(self, set_a):
        n = 10**6
        out = simulate_terminal(set_a, Measure.RISK_NEUTRAL, n, 7)
        disc = math.exp(-set_a.r * set_a.t)
        for values in (out.index, out.stock):
            sample = disc * values
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - 1.0) <= 4.0 * se

    def test_moments_match_law(self, set_a):
        n = 10**6
        mean, std = log_ratio_law(set_a)
        out = simulate_terminal(set_a, Measure.PHYSICAL, n, 11)
        log_ratio = np.log(out.stock / out.index)
        se = log_ratio.std(ddof=1) / math.sqrt(n)
        assert abs(log_ratio.mean() - mean) <= 4.0 * se
        assert log_ratio.std(ddof=1) == pytest.approx(std, rel=0.05)

    def test_deterministic_and_chunkable(self, set_a):
        full = simulate_terminal(set_a, Measure.PHYSICAL, 1000, 5)
        again = simulate_terminal(set_a, Measure.PHYSICAL, 1000, 5)
        assert np.array_equal(full.index, again.index)
        head = simulate_terminal(set_a, Measure.PHYSICAL, 400, 5)
        tail = simulate_terminal(set_a, Measure.PHYSICAL, 600, 5, first_path=400)
        assert np.array_equal(full.index, np.concatenate([head.index, tail.index]))
        assert np.array_equal(full.stock, np.concatenate([head.stock, tail.stock]))

    def test_rejects_empty_batch(self, set_a):
        with pytest.raises(ValueError):
            simulate_terminal(set_a, Measure.PHYSICAL, 0, 1)

    def test_single_path_equals_row_of_large_batch(self, set_a):
        n = 10**5
        batch = simulate_terminal(set_a, Measure.PHYSICAL, n, 7)
        for k in np.random.default_rng(0).choice(n, 200, replace=False):
            one = simulate_terminal(set_a, Measure.PHYSICAL, 1, 7, first_path=int(k))
            assert one.index[0] == batch.index[k] and one.stock[0] == batch.stock[k]

    # SHA-256 of the (index, stock) price bytes on SET_A at 10^5 paths,
    # frozen when the sampler still formed the prices itself, and re-pinned
    # for random stream "v4": ``simulate`` prints these bits, and its pins
    # and the benchmark's export check read them
    PRICE_DIGESTS = {
        11: ("caee8f0c1bada6e5bb8845e7553e5935b4dee9d154c83b00b47da1e8072c9b7a",
             "cfa5e26c09592840ff785f6967b424aa533356def1141e994dbf8a1ed0948deb"),
        12: ("0ba91ca9c905f4e7195c4e76490c5c5ceb17cf08f6afa5fa14b02b734be0e4be",
             "e85cc4e703ef3f36b837b06dc8e5da1be5cdf31b54bf14914e3499bc2c5fb854"),
        42: ("429835639502c127ddb465a0f7a51ffce7dc56f43f4269c0279ced5fa626aec0",
             "b4f74730ea7d9a8db6b21c66a648d4738243f89392c6fb91a0be7e57cfa793f1"),
    }

    @pytest.mark.parametrize("seed", sorted(PRICE_DIGESTS))
    def test_prices_keep_their_bits(self, set_a, seed):
        out = simulate_terminal(set_a, Measure.PHYSICAL, 10**5, seed)
        index, stock = out.index, out.stock
        assert np.array_equal(index, np.exp(out.log_index))
        assert np.array_equal(stock, np.exp(out.log_stock))
        digests = tuple(hashlib.sha256(x.tobytes()).hexdigest() for x in (index, stock))
        assert digests == self.PRICE_DIGESTS[seed]

    @pytest.mark.parametrize("column", [0, 1])
    def test_rejects_a_nan_log_level(self, set_a, monkeypatch, column):
        draw = rng.normal_pairs

        def with_nan(*args):
            pairs = draw(*args)
            pairs[3, column] = math.nan
            return pairs

        monkeypatch.setattr(rng, "normal_pairs", with_nan)
        with pytest.raises(ValueError, match="the market leaves the float range"):
            simulate_terminal(set_a, Measure.PHYSICAL, 10, 1)


def _last_priced_level(estimate: float, outward: float) -> float:
    """The float farthest towards ``outward`` whose price, as the two-element
    ``np.exp`` of :func:`_in_exp_range` forms it, is finite and positive,
    stepped to with ``np.nextafter`` from a nearby ``estimate``."""
    def priced(x):
        with np.errstate(over="ignore", under="ignore"):
            price = np.exp([x, x])[0]
        return 0.0 < price < math.inf

    limit = estimate
    while not priced(limit):
        limit = np.nextafter(limit, -outward)
    while priced(beyond := np.nextafter(limit, outward)):
        limit = beyond
    return float(limit)


# about -745.13 (the least subnormal, half of which rounds to 0.0) and
# 709.78 (the largest float)
_LEAST_LEVEL = _last_priced_level(math.log(5e-324) - math.log(2.0), -math.inf)
_GREATEST_LEVEL = _last_priced_level(math.log(np.finfo(float).max), math.inf)


class TestExpRange:
    """Log levels and log ratios are checked by the prices ``np.exp`` gives
    their two extremes: at the last level whose two-element price is a
    finite positive float, the price of any array length is too, and one
    float beyond it every length prices to inf or 0.0, so the rule agrees
    with the long-array ``np.exp`` that forms the prices."""

    @pytest.mark.parametrize("n", [1, 7, 8, 65_536])
    def test_limits_are_exact_against_np_exp(self, n):
        for limit, outward, price_beyond in ((_LEAST_LEVEL, -math.inf, 0.0),
                                             (_GREATEST_LEVEL, math.inf, math.inf)):
            price = np.exp(np.full(n, limit))
            assert ((0.0 < price) & (price < math.inf)).all()
            with np.errstate(over="ignore", under="ignore"):
                beyond = np.exp(np.full(n, np.nextafter(limit, outward)))
            assert beyond.tobytes() == np.full(n, price_beyond).tobytes()

    def test_limits_are_the_ends_of_the_float_range(self):
        # the least subnormal, and the largest float to within one step of
        # the level (an ulp of 709.78 moves its price by 1.1e-13 relative)
        assert np.exp(_LEAST_LEVEL) == 5e-324
        assert np.exp(_GREATEST_LEVEL) == pytest.approx(np.finfo(float).max, rel=2e-13)

    def test_rule_takes_the_limits_and_rejects_what_lies_beyond(self):
        inside = np.array([_LEAST_LEVEL, 0.0, _GREATEST_LEVEL])
        assert _in_exp_range(inside) and _in_exp_range(np.array([]))
        for bad in (np.nextafter(_LEAST_LEVEL, -math.inf), np.nextafter(_GREATEST_LEVEL, math.inf),
                    -math.inf, math.inf, math.nan):
            assert not _in_exp_range(np.append(inside, bad))


class TestSimulatePath:
    def test_single_step_matches_terminal_distribution(self, set_a):
        n = 10**5
        batch = simulate_paths(set_a, Measure.PHYSICAL, 1, n, 21)
        terminal = simulate_terminal(set_a, Measure.PHYSICAL, n, 22)
        stat = stats.ks_2samp(
            np.log(batch.stock_values[:, -1] / batch.index_values[:, -1]),
            np.log(terminal.stock / terminal.index),
        )
        assert stat.pvalue > 0.01

    def test_zero_noise_path_is_drift_only(self, set_a):
        times = np.linspace(0.0, set_a.t, 9)
        path = paths_from_increments(set_a, Measure.PHYSICAL, times, np.zeros((1, 8, 2)))
        norm_i_sq = float(set_a.sigma_i @ set_a.sigma_i)
        expected = math.exp((set_a.mu_i - norm_i_sq / 2.0) * set_a.t)
        assert path.index_values[0, -1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_grids_are_column_major_row_major_bits(self, set_a, measure):
        # the column-major grids hold exactly the floats of the row-major
        # cumsum-then-exp of the per-step rule on the counter draws; one
        # path included, since a path's floats may not depend on its batch
        n_steps = 40
        times = np.linspace(0.0, set_a.t, n_steps + 1)
        scale = np.sqrt(set_a.t / n_steps)
        mu_i, mu_s = drift_pair(set_a, measure)
        for n_paths in (1, 2, 3, 65, 300):
            batch = simulate_paths(set_a, measure, n_steps, n_paths, 808)
            xi = np.stack([rng.normal_pairs(808, 0, n_paths, step) for step in range(n_steps)],
                          axis=1)
            for values, mu, bar in ((batch.index_values, mu_i, set_a.bars[0]),
                                    (batch.stock_values, mu_s, set_a.bars[1])):
                steps = ((xi[..., 0] * bar[0] + xi[..., 1] * bar[1]) * scale
                         + (mu - 0.5 * math.sqrt(bar @ bar)**2) * np.diff(times))
                assert values.shape == (n_paths, n_steps + 1)
                assert values.flags.f_contiguous
                assert np.all(values[:, 0] == 1.0)
                assert np.array_equal(values[:, 1:], np.exp(np.cumsum(steps, axis=1))), n_paths

    def test_grids_are_the_stream(self, set_a):
        batch = simulate_paths(set_a, Measure.PHYSICAL, 16, 5, 9, first_path=7)
        steps = list(price_steps(set_a, Measure.PHYSICAL, 16, 5, 9, first_path=7))
        assert [t for t, _, _ in steps] == batch.times[:-1].tolist()
        assert [t_next for _, t_next, _ in steps] == batch.times[1:].tolist()
        for k, (_, _, levels) in enumerate(steps, 1):
            assert np.array_equal(levels.index, batch.index_values[:, k])
            assert np.array_equal(levels.stock, batch.stock_values[:, k])

    @pytest.mark.parametrize("measure", list(Measure))
    @pytest.mark.parametrize("n_paths", [1, 2, 1000])
    def test_one_step_stream_is_the_terminal_sampler(self, measure, n_paths):
        gen = np.random.default_rng(9)
        for params, first_path in [(MarketParams(**SET_A), 0)] + [
                (random_market(gen), int(gen.integers(0, 10**6))) for _ in range(6)]:
            (_, t_next, levels), = price_steps(params, measure, 1, n_paths, 31,
                                               first_path=first_path)
            terminal = simulate_terminal(params, measure, n_paths, 31, first_path=first_path)
            assert t_next == params.t
            assert levels.log_index.tobytes() == terminal.log_index.tobytes()
            assert levels.log_stock.tobytes() == terminal.log_stock.tobytes()

    def test_stream_leaves_the_error_state_to_its_reader(self, set_a):
        # levels whose prices overflow, or which overflow themselves, are
        # yielded without a warning, and the reader's code runs under its
        # own error state
        for mu_i in (200.0, 1e308):
            params = replace(set_a, mu_i=mu_i)
            with np.errstate(over="raise"):
                steps = [levels for _, _, levels in price_steps(params, Measure.PHYSICAL, 8, 3, 1)
                         if np.geterr()["over"] == "raise"]
            assert len(steps) == 8
            with np.errstate(over="ignore"):
                assert np.isinf(steps[-1].index).all(), mu_i

    def test_peak_memory_is_the_two_grids(self, set_a):
        # the stream holds one step's draws and levels; a buffer of every
        # step's increments took the peak to twice the grids
        tracemalloc.start()
        try:
            batch = simulate_paths(set_a, Measure.PHYSICAL, 512, 4096, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= batch.index_values.nbytes + batch.stock_values.nbytes + 2 * 2**20

    # after the three ordering cases, times that are not a finite vector:
    # one message, not a stray IndexError or a NaN that no comparison catches
    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.5, 1.0, 2.0],
                                       0.0, [[0.0, 1.0, 2.0]], [], [0.0, math.nan, 2.0],
                                       [0.0, 1.0, math.inf]])
    def test_rejects_times_not_increasing_from_zero(self, set_a, times):
        with pytest.raises(ValueError, match="increase strictly from 0"):
            paths_from_increments(set_a, Measure.PHYSICAL, times, np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_increments(self, set_a, bad):
        # a NaN increment would make its path's later prices NaN
        increments = np.zeros((3, 4, 2))
        increments[1, 1, 0] = bad
        with pytest.raises(ValueError, match="increments must be finite"):
            paths_from_increments(set_a, Measure.PHYSICAL, np.linspace(0.0, set_a.t, 5),
                                  increments)

    @pytest.mark.parametrize("shape", [(2, 1, 2), (2, 6, 2), (2, 4, 3)])
    def test_rejects_increments_off_the_time_grid(self, set_a, shape):
        # one increment per path, step and driver: none broadcast, none dropped
        times = np.linspace(0.0, set_a.t, 5)
        with pytest.raises(ValueError, match=r"must have shape \(n_paths, 4, 2\)"):
            paths_from_increments(set_a, Measure.PHYSICAL, times, np.zeros(shape))

    @pytest.mark.parametrize("n_steps, n_paths, message", [
        (0, 3, "n_steps must be at least 1"),
        (4, 0, "n_paths must be at least 1"),
    ])
    def test_rejects_empty_grids(self, set_a, n_steps, n_paths, message):
        with pytest.raises(ValueError, match=message):
            simulate_paths(set_a, Measure.PHYSICAL, n_steps, n_paths, 1)
        # the stream checks its arguments on the call, before any step
        with pytest.raises(ValueError, match=message):
            price_steps(set_a, Measure.PHYSICAL, n_steps, n_paths, 1)

    def test_terminal_law_against_analytic_ks(self, set_a):
        n = 10**5
        batch = simulate_paths(set_a, Measure.PHYSICAL, 256, n, 33)
        log_ratio = np.log(batch.stock_values[:, -1] / batch.index_values[:, -1])
        result = stats.kstest(log_ratio, "norm", args=log_ratio_law(set_a))
        assert result.pvalue > 0.01

    def test_path_sample_fields(self, set_a):
        path = simulate_paths(set_a, Measure.PHYSICAL, 16, 1, 4, first_path=123)
        assert path._fields == ("times", "index_values", "stock_values")
        assert np.array_equal(path.times, np.linspace(0.0, set_a.t, 17))
        assert path.index_values.shape == path.stock_values.shape == (1, 17)
        assert path.index_values[0, 0] == 1.0 and path.stock_values[0, 0] == 1.0
        assert np.all(path.index_values > 0.0) and np.all(path.stock_values > 0.0)

    def test_one_path_equals_row_of_batch(self, set_a):
        batch = simulate_paths(set_a, Measure.PHYSICAL, 64, 500, 4)
        for k in (0, 1, 123, 499):
            one = simulate_paths(set_a, Measure.PHYSICAL, 64, 1, 4, first_path=k)
            assert np.array_equal(one.times, batch.times)
            for name in ("index_values", "stock_values"):
                assert np.array_equal(getattr(one, name)[0], getattr(batch, name)[k])


class TestPathRange:
    # paths are counter lanes in [0, 2^64): a run outside is an error,
    # not a wrapped or overflowing counter
    @pytest.mark.parametrize("first_path, n_paths", [(-1, 1), (-2, 3), (2**64 - 2, 3), (2**64, 1)])
    def test_rejects_paths_outside_the_lanes(self, set_a, first_path, n_paths):
        with pytest.raises(ValueError, match="must lie in"):
            simulate_terminal(set_a, Measure.PHYSICAL, n_paths, 1, first_path=first_path)
        with pytest.raises(ValueError, match="must lie in"):
            simulate_paths(set_a, Measure.PHYSICAL, 4, n_paths, 1, first_path=first_path)

    @pytest.mark.parametrize("n_paths, message", [
        (0, "^n_paths must be at least 1$"),
        (2**64 + 1, r"^n_paths must be at most 2\^64, the lanes of the random stream, "
                    f"got {2**64 + 1}$"),
    ])
    def test_path_count_is_checked_on_the_call(self, set_a, n_paths, message):
        # one rule (rng.check_paths) for both samplers; the stream checks
        # on the call, before its first draw
        with pytest.raises(ValueError, match=message):
            simulate_terminal(set_a, Measure.PHYSICAL, n_paths, 1)
        with pytest.raises(ValueError, match=message):
            price_steps(set_a, Measure.PHYSICAL, 4, n_paths, 1)
        with pytest.raises(ValueError, match=message):
            rng.check_paths(n_paths)

    def test_last_lane_is_a_valid_path(self, set_a):
        last = 2**64 - 1
        one = simulate_terminal(set_a, Measure.PHYSICAL, 1, 1, first_path=last)
        two = simulate_terminal(set_a, Measure.PHYSICAL, 2, 1, first_path=last - 1)
        assert one.index[0] == two.index[1] and one.stock[0] == two.stock[1]
        path = simulate_paths(set_a, Measure.PHYSICAL, 4, 1, 1, first_path=last)
        paths = simulate_paths(set_a, Measure.PHYSICAL, 4, 2, 1, first_path=last - 1)
        assert np.array_equal(path.index_values[0], paths.index_values[1])
        assert np.all(np.isfinite(path.stock_values))


def _drift_only_log_ratio(params, measure):
    """ln(S_T / I_T) on the path with zero driver increments, one step long."""
    start = TerminalSample(np.zeros(1), np.zeros(1))
    end = step_prices(params, measure, params.t, np.sqrt(params.t), np.zeros((1, 2)), start)
    return float(end.log_stock[0] - end.log_index[0])


class TestLogRatioLaw:
    # the law's mean is the drift-only log ratio; its std is the spread
    # norm of the bars over the horizon

    def test_reference_values(self, set_a):
        mean, std = log_ratio_law(set_a)
        assert mean == pytest.approx(-0.3375, abs=1e-15)
        assert std == pytest.approx(0.570087712549569, abs=1e-15)
        assert _drift_only_log_ratio(set_a, Measure.PHYSICAL) == pytest.approx(-0.3375, abs=1e-15)
        assert (set_a.delta_norm * math.sqrt(set_a.t)
                == pytest.approx(0.570087712549569, abs=1e-15))

    def test_symmetric_cancellation(self):
        p = MarketParams(0.05, 0.05, (0.2, 0.0), (0.0, 0.2), 0.0, 4.0)
        assert log_ratio_law(p)[0] == 0.0
        assert _drift_only_log_ratio(p, Measure.PHYSICAL) == 0.0

    def test_risk_neutral_substitutes_rate(self, set_a):
        expected = 0.5 * (0.025 - 0.0725) * set_a.t
        assert log_ratio_law(set_a, Measure.RISK_NEUTRAL)[0] == pytest.approx(expected, abs=1e-15)
        assert (_drift_only_log_ratio(set_a, Measure.RISK_NEUTRAL)
                == pytest.approx(expected, abs=1e-15))

    def test_index_measure_mean_by_reweighted_mc(self, set_a):
        # change of numeraire: E_index[X] = E_rn[e^{-rT} I_T X] when I_0 = 1
        n = 10**6
        out = simulate_terminal(set_a, Measure.RISK_NEUTRAL, n, 17)
        weight = math.exp(-set_a.r * set_a.t) * out.index
        values = weight * np.log(out.stock / out.index)
        se = values.std(ddof=1) / math.sqrt(n)
        expected = -0.5 * log_ratio_law(set_a)[1] ** 2
        assert abs(values.mean() - expected) <= 4.0 * se
