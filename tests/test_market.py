"""Market reduction and exact samplers."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from eihlab.market import (
    MarketParams,
    Measure,
    PricePoint,
    drift_pair,
    paths_from_increments,
    reduce_dimension,
    simulate_paths,
    simulate_terminal,
    step_prices,
)

from conftest import log_ratio_law, make_degenerate_equal_sigmas, random_market


class TestParamsValidation:
    def test_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.0, 0.0), (0.2, 0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.2, 0.0), (0.0, 0.0), 0.0, 1.0)

    def test_rejects_equal_sigmas(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.0, (0.2, 0.1), (0.2, 0.1), 0.0, 1.0)

    @pytest.mark.parametrize("sigma_i, sigma_s", [
        ((0.2, 0.0), (0.2, 1e-300)), ((1e200, 0.0), (0.0, 1e200)), ((1e-200, 0.0), (0.2, 0.1)),
    ], ids=["zero-spread", "overflow", "underflow"])
    def test_rejects_pairs_whose_norms_vanish_or_overflow(self, sigma_i, sigma_s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite and positive"):
                MarketParams(0.0, 0.0, sigma_i, sigma_s, 0.0, 1.0)

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

    def test_initial_prices_pinned(self, set_a):
        assert set_a.I0 == 1.0 and set_a.S0 == 1.0


class TestReduceDimension:
    def test_already_two_dimensional(self):
        p = MarketParams(0.0, 0.0, (0.2, 0.0), (0.1, 0.1), 0.0, 1.0)
        red = reduce_dimension(p)
        np.testing.assert_allclose(red.sigma_i_bar, [0.2, 0.0], atol=1e-15)
        np.testing.assert_allclose(red.sigma_s_bar, [0.1, 0.1], atol=1e-15)

    def test_three_driver_example(self):
        p = MarketParams(0.0, 0.0, (0.15, 0.05, 0.0), (0.25, -0.10, 0.0), 0.0, 1.0)
        red = reduce_dimension(p)
        spread = np.linalg.norm(red.sigma_s_bar - red.sigma_i_bar)
        assert spread == pytest.approx(math.sqrt(0.0325), abs=1e-12)

    def test_collinear_pair(self):
        p = MarketParams(0.0, 0.0, (0.2, 0.0), (0.4, 0.0), 0.0, 1.0)
        red = reduce_dimension(p)
        np.testing.assert_allclose(red.sigma_i_bar, [0.2, 0.0], atol=1e-15)
        np.testing.assert_allclose(red.sigma_s_bar, [0.4, 0.0], atol=1e-15)

    def test_preserves_geometry_on_random_inputs(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            p = random_market(gen)
            red = reduce_dimension(p)
            for bar, orig in ((red.sigma_i_bar, p.sigma_i), (red.sigma_s_bar, p.sigma_s)):
                assert np.linalg.norm(bar) == pytest.approx(
                    np.linalg.norm(orig), rel=1e-12)
            assert red.sigma_i_bar @ red.sigma_s_bar == pytest.approx(
                p.sigma_i @ p.sigma_s, rel=1e-12, abs=1e-15)

    def test_bond_pair(self, set_a):
        red = set_a.reduced_vs_bond
        assert red.delta_norm == pytest.approx(np.linalg.norm(set_a.sigma_i), rel=1e-15)
        assert np.all(red.sigma_s_bar == 0.0)

    def test_bars_are_read_only(self, set_a):
        for red in (set_a.reduced, set_a.reduced_vs_bond):
            for bar in (red.sigma_i_bar, red.sigma_s_bar):
                with pytest.raises(ValueError, match="read-only"):
                    bar[0] = 1.0


def _direct_geometry(p: MarketParams) -> dict:
    """Each cached quantity as the expression its readers used inline."""
    return {
        "norm_i": float(np.linalg.norm(p.sigma_i)),
        "norm_s": float(np.linalg.norm(p.sigma_s)),
        "spread_norm": float(np.linalg.norm(p.sigma_s - p.sigma_i)),
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
            for red in (p.reduced, p.reduced_vs_bond):
                assert red.delta_norm == float(np.linalg.norm(red.sigma_s_bar - red.sigma_i_bar))
                assert red.norm_i == float(np.linalg.norm(red.sigma_i_bar))
                assert red.norm_s == float(np.linalg.norm(red.sigma_s_bar))
            assert reduce_dimension(p) is p.reduced
            spread_differs += p.spread_norm != p.reduced.delta_norm
            square_differs += p.norm_i_sq != p.norm_i**2
        # the look-alikes are different floats, which is why both are kept
        assert spread_differs > 0 and square_differs > 0

    def test_replace_recomputes(self, set_a):
        before = _cached_geometry(set_a)
        reduced = set_a.reduced
        moved = replace(set_a, sigma_s=np.array([0.05, 0.3]))
        assert _cached_geometry(moved) == _direct_geometry(moved)
        assert _cached_geometry(moved) != before
        assert moved.reduced is not reduced
        assert np.array_equal(moved.reduced.sigma_s_bar, reduce_dimension(moved).sigma_s_bar)
        assert moved.reduced.delta_norm != reduced.delta_norm
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
        assert p.reduced.sigma_s_bar.tolist() == [math.copysign(p.norm_s, factor), 0.0]
        assert p.reduced.sigma_i_bar.tolist() == [p.norm_i, 0.0]


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
        # cumsum-then-exp on random increments and an uneven time grid;
        # one path, whose lone product rounds unlike a batch row's, included
        rng = np.random.default_rng(808)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, size=40))])
        mu_i, mu_s = drift_pair(set_a, measure)
        reduced = set_a.reduced
        # zero paths give an empty batch
        for n_paths in (1, 2, 3, 65, 300, 0):
            increments = rng.standard_normal((n_paths, 40, 2)) * np.sqrt(np.diff(times))[:, None]
            batch = paths_from_increments(set_a, measure, times, increments)
            for values, mu, sigma_bar in ((batch.index_values, mu_i, reduced.sigma_i_bar),
                                          (batch.stock_values, mu_s, reduced.sigma_s_bar)):
                steps = ((mu - 0.5 * float(sigma_bar @ sigma_bar)) * np.diff(times)
                         + increments @ sigma_bar)
                assert values.shape == (n_paths, 41)
                assert values.flags.f_contiguous
                assert np.all(values[:, 0] == 1.0)
                assert np.array_equal(values[:, 1:], np.exp(np.cumsum(steps, axis=1))), n_paths

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
    end = step_prices(params, measure, params.t, np.zeros((2, 2)), PricePoint.at_start(2))
    return float(end.log_stock[0] - end.log_index[0])


class TestLogRatioLaw:
    # the law's mean is the drift-only log ratio; its std is the reduced
    # spread norm over the horizon

    def test_reference_values(self, set_a):
        mean, std = log_ratio_law(set_a)
        assert mean == pytest.approx(-0.3375, abs=1e-15)
        assert std == pytest.approx(0.570087712549569, abs=1e-15)
        assert _drift_only_log_ratio(set_a, Measure.PHYSICAL) == pytest.approx(-0.3375, abs=1e-15)
        assert (set_a.reduced.delta_norm * math.sqrt(set_a.t)
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
