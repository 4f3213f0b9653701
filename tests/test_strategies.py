"""Strategy construction, wealth tracking, events, and drift bounds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from eihlab import analytic, strategies
from eihlab.analytic import DigitalSpec, Direction, claim_value, digital_price, hedge_ratios
from eihlab.market import (
    MarketParams,
    Measure,
    TerminalSample,
    paths_from_increments,
    reduce_dimension,
    simulate_paths,
    simulate_terminal,
)
from eihlab.strategies import (
    Replication,
    Side,
    Underlying,
    bond_drift_gap,
    bound_check,
    build_bond_one_sided,
    build_capm_composite,
    build_index_vs_bond,
    build_one_sided,
    build_two_sided,
    drift_gap,
    event_one_sided,
    event_recover,
    event_two_sided,
    strategy_fires,
    terminal_log_ratios,
    terminal_wealth,
)

from conftest import SET_A, random_market, wealth_tracks


class TestTwoSided:
    def test_component_wealths(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        assert [c.initial_wealth for c in strat.components] == [0.025, 0.025]
        assert strat.total_initial_wealth == 0.05

    def test_initial_wealth_matches_price(self, set_a):
        red = reduce_dimension(set_a)
        for delta in (0.01, 0.05, 0.5):
            strat = build_two_sided(set_a, delta)
            for comp in strat.components:
                assert abs(comp.initial_wealth
                           - digital_price(red, comp.spec, set_a.t)) <= 1e-12

    def test_beat_identity_is_exact(self, set_a):
        delta = 0.05
        strat = build_two_sided(set_a, delta)
        out = simulate_terminal(set_a, Measure.PHYSICAL, 100_000, 9)
        log_ratios = terminal_log_ratios(set_a, out, Underlying.STOCK)
        wealth = terminal_wealth(strat, out.index, log_ratios)
        event = event_two_sided(set_a, delta, log_ratios[Underlying.STOCK])
        # escape paths: K_T / K_0 equals I_T / delta bitwise
        np.testing.assert_array_equal(
            wealth[~event] / strat.total_initial_wealth, out.index[~event] / delta)
        np.testing.assert_array_equal(wealth[event], 0.0)

    def test_terminal_wealth_values(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        out = simulate_terminal(set_a, Measure.PHYSICAL, 50_000, 10)
        wealth = terminal_wealth(strat, out.index,
                                 terminal_log_ratios(set_a, out, Underlying.STOCK))
        fired = wealth > 0.0
        np.testing.assert_array_equal(wealth[fired], out.index[fired])

    def test_rejects_bad_delta(self, set_a):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                build_two_sided(set_a, bad)


class TestOneSided:
    def test_initial_wealth_is_delta(self, set_a):
        red = reduce_dimension(set_a)
        for side in Side:
            strat = build_one_sided(set_a, 0.05, side)
            (comp,) = strat.components
            assert comp.initial_wealth == 0.05
            assert abs(digital_price(red, comp.spec, set_a.t) - 0.05) <= 1e-12

    def test_upper_pays_on_large_centered_log_ratio(self, set_a):
        # the upper claim fires exactly when the centered log ratio
        # reaches the one-sided width
        delta = 0.05
        strat = build_one_sided(set_a, delta, Side.UPPER)
        out = simulate_terminal(set_a, Measure.PHYSICAL, 100_000, 12)
        log_ratios = terminal_log_ratios(set_a, out, Underlying.STOCK)
        fires = strategy_fires(strat, log_ratios)
        event = event_one_sided(set_a, delta, log_ratios[Underlying.STOCK], Side.UPPER)
        np.testing.assert_array_equal(fires, ~event)
        (comp,) = strat.components
        red = reduce_dimension(set_a)
        width = (comp.spec.log_threshold
                 + 0.5 * red.delta_norm**2 * set_a.t) / (red.delta_norm * math.sqrt(set_a.t))
        from eihlab.normal import upper_quantile
        assert width == pytest.approx(upper_quantile(delta), rel=1e-12)

    def test_median_split_at_half(self, set_a):
        # delta = 1/2 puts the threshold at the index-measure median, so
        # the claim price (its firing probability) is one half
        red = reduce_dimension(set_a)
        strat = build_one_sided(set_a, 0.5, Side.LOWER)
        (comp,) = strat.components
        assert digital_price(red, comp.spec, set_a.t) == pytest.approx(0.5, abs=1e-12)


class TestIndexVsBond:
    def test_event_is_recover_band(self, set_a):
        delta = 0.05
        strat = build_index_vs_bond(set_a, delta)
        out = simulate_terminal(set_a, Measure.PHYSICAL, 100_000, 14)
        log_ratios = terminal_log_ratios(set_a, out, Underlying.BOND)
        fires = strategy_fires(strat, log_ratios)
        recover = event_recover(set_a, delta, log_ratios[Underlying.BOND])
        np.testing.assert_array_equal(fires, ~recover)

    def test_recover_halfwidth_reference(self, set_a):
        # z_{0.025} * ||sigma_i|| * sqrt(10); frozen from 40-digit arithmetic
        from eihlab.analytic import log_thresholds
        log_a, log_b = log_thresholds(set_a.reduced_vs_bond.delta_norm, set_a.t, 0.05)
        half_width = 0.5 * (log_b - log_a)
        assert half_width == pytest.approx(0.9799819922700271, abs=1e-12)

    def test_beat_factor_when_recover_fails(self, set_a):
        delta = 0.05
        strat = build_index_vs_bond(set_a, delta)
        out = simulate_terminal(set_a, Measure.PHYSICAL, 100_000, 15)
        log_ratios = terminal_log_ratios(set_a, out, Underlying.BOND)
        wealth = terminal_wealth(strat, out.index, log_ratios)
        recover = event_recover(set_a, delta, log_ratios[Underlying.BOND])
        np.testing.assert_array_equal(
            wealth[~recover] / strat.total_initial_wealth,
            out.index[~recover] / delta)


class TestComposites:
    def test_prop_mu_bis_side_selection(self, set_a):
        # a gap >= 0 picks the upper tail and a gap < 0 the lower one, for
        # the stock and for the bond; the zero gaps of ``flat`` are exact,
        # its floats being dyadic
        flat = MarketParams(0.09375, 0.15625, (0.25, 0.0), (0.5, 0.5), 0.03125, 4.0)
        signs = set()
        for params in (set_a, MarketParams(**{**SET_A, "mu_s": 0.15}),
                       MarketParams(**{**SET_A, "mu_i": 0.0}), flat):
            stock_gap, bond_gap = drift_gap(params), bond_drift_gap(params)
            signs.add((np.sign(stock_gap), np.sign(bond_gap)))
            assert Side.of_gap(stock_gap) is (Side.UPPER if stock_gap >= 0.0 else Side.LOWER)
            (mu_bis,) = build_one_sided(params, 0.05, Side.of_gap(stock_gap)).components
            (index,) = build_bond_one_sided(params, 0.05).components
            stock, bond = build_capm_composite(params, 0.05, "cor_2delta").components
            for comp, gap in ((mu_bis, stock_gap), (stock, stock_gap), (index, bond_gap),
                              (bond, bond_gap)):
                assert comp.spec.direction is (Direction.AT_LEAST if gap >= 0.0
                                               else Direction.AT_MOST)
        assert signs == {(-1, -1), (1, -1), (1, 1), (0, 0)}

    def test_cor_2delta_wealth_and_factor(self, set_a):
        delta = 0.05
        strat = build_capm_composite(set_a, delta, "cor_2delta")
        assert strat.total_initial_wealth == pytest.approx(2.0, rel=1e-12)
        out = simulate_terminal(set_a, Measure.PHYSICAL, 100_000, 16)
        log_ratios = terminal_log_ratios(set_a, out, *Underlying)
        wealth = terminal_wealth(strat, out.index, log_ratios)
        fires = strategy_fires(strat, log_ratios)
        k0 = strat.total_initial_wealth
        factor = wealth[fires] / k0
        assert np.all(factor >= out.index[fires] / (2.0 * delta) * (1.0 - 1e-12))

    def test_cor_3delta_wealth(self, set_a):
        strat = build_capm_composite(set_a, 0.05, "cor_3delta")
        assert strat.total_initial_wealth == pytest.approx(3.0, rel=1e-12)
        assert len(strat.components) == 3

    def test_unknown_variant_rejected(self, set_a):
        with pytest.raises(ValueError):
            build_capm_composite(set_a, 0.05, "nope")


def _cutoff(params, n_steps):
    return params.t * (1.0 - 1.0 / n_steps)


class TestAnalyticWealth:
    def test_inception_value_matches_total(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        batch = simulate_paths(set_a, Measure.PHYSICAL, 32, 1, 18)
        track = wealth_tracks(strat, set_a, batch, _cutoff(set_a, 32))
        assert track.analytic[0, 0] == pytest.approx(strat.total_initial_wealth, abs=1e-12)

    def test_terminal_is_indicator_payoff(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        batch = simulate_paths(set_a, Measure.PHYSICAL, 8, 20, 19)
        track = wealth_tracks(strat, set_a, batch, _cutoff(set_a, 8))
        for k in range(20):
            assert track.analytic[k, -1] in (0.0, batch.index_values[k, -1])

    def test_nonnegative_on_many_paths(self, set_a):
        strat = build_capm_composite(set_a, 0.05, "cor_3delta")
        batch = simulate_paths(set_a, Measure.PHYSICAL, 16, 10_000, 20)
        track = wealth_tracks(strat, set_a, batch, _cutoff(set_a, 16))
        assert track.analytic.min() >= 0.0


class TestHedgedWealth:
    def test_starts_at_analytic_value(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        batch = simulate_paths(set_a, Measure.PHYSICAL, 64, 1, 23, first_path=1)
        track = wealth_tracks(strat, set_a, batch, _cutoff(set_a, 64))
        assert track.hedged[0, 0] == track.analytic[0, 0]

    def test_pure_bond_track_grows_at_rate(self, set_a):
        # a cutoff before the first grid time never rebalances, so the
        # whole initial wealth sits in cash
        strat = build_two_sided(set_a, 0.05)
        batch = simulate_paths(set_a, Measure.PHYSICAL, 256, 1, 23)
        track = wealth_tracks(strat, set_a, batch, -1.0)
        expected = track.analytic[0, 0] * math.exp(set_a.r * set_a.t)
        assert track.hedged[0, -1] == pytest.approx(expected, rel=1e-12)

    def test_self_financing_identity(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        path = simulate_paths(set_a, Measure.PHYSICAL, 32, 1, 24, first_path=2)
        cutoff = _cutoff(set_a, 32)
        hedged = wealth_tracks(strat, set_a, path, cutoff).hedged[0]
        stock, index = path.stock_values[0], path.index_values[0]
        # replay the rebalances and check each step reprices exactly
        dt = path.times[1] - path.times[0]
        h_s = h_i = 0.0
        for k in range(32):
            t = float(path.times[k])
            if t <= cutoff:
                hs_arr, hi_arr = np.zeros(1), np.zeros(1)
                for comp in strat.components:
                    assert comp.underlying is Underlying.STOCK
                    ratios = hedge_ratios(comp.reduced, comp.spec, t, stock[k:k + 1],
                                          index[k:k + 1], set_a.t)
                    hs_arr += comp.units * ratios.units_s
                    hi_arr += comp.units * ratios.units_i
                h_s, h_i = float(hs_arr[0]), float(hi_arr[0])
            cash = hedged[k] - h_s * stock[k] - h_i * index[k]
            recomputed = (h_s * stock[k + 1]
                          + h_i * index[k + 1]
                          + cash * math.exp(set_a.r * dt))
            assert recomputed == hedged[k + 1]

    def test_error_shrinks_with_refinement(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        medians = []
        for n_steps in (64, 256):
            batch = simulate_paths(set_a, Measure.PHYSICAL, n_steps, 2_000, 25)
            track = wealth_tracks(strat, set_a, batch, _cutoff(set_a, n_steps))
            medians.append(float(np.median(np.abs(track.hedged[:, -1] - track.analytic[:, -1]))))
        assert medians[1] < medians[0]

    def test_rejects_cutoff_at_horizon(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        batch = simulate_paths(set_a, Measure.PHYSICAL, 8, 1, 26, first_path=3)
        with pytest.raises(ValueError):
            wealth_tracks(strat, set_a, batch, set_a.t)

    def test_one_path_equals_row_of_batch(self, set_a):
        strat = build_capm_composite(set_a, 0.05, "cor_3delta")
        cutoff = _cutoff(set_a, 32)
        batch = simulate_paths(set_a, Measure.PHYSICAL, 32, 500, 27)
        full = wealth_tracks(strat, set_a, batch, cutoff)
        for k in (0, 1, 137, 499):
            one = simulate_paths(set_a, Measure.PHYSICAL, 32, 1, 27, first_path=k)
            track = wealth_tracks(strat, set_a, one, cutoff)
            assert np.array_equal(track.analytic[0], full.analytic[k])
            assert np.array_equal(track.hedged[0], full.hedged[k])


def _reference_tracks(strategy, params, batch, cutoff):
    """The wealth loop written over the public valuation functions: per
    component, ``claim_value`` then ``hedge_ratios``, each on its own
    ratio, in row-major arrays."""
    times = batch.times
    n, m_plus_1 = batch.index_values.shape
    analytic = np.zeros((n, m_plus_1))
    hedged = np.empty((n, m_plus_1))
    h_stock = np.zeros(n)
    h_index = np.zeros(n)
    for k in range(m_plus_1 - 1):
        t = float(times[k])
        stock_t = batch.stock_values[:, k]
        index_t = batch.index_values[:, k]
        if t <= cutoff:
            h_stock = np.zeros(n)
            h_index = np.zeros(n)
        for comp in strategy.components:
            if comp.underlying is Underlying.STOCK:
                numer = stock_t
            else:
                numer = np.asarray(math.exp(params.r * t))
            analytic[:, k] += comp.units * claim_value(
                comp.reduced, comp.spec, t, numer, index_t, params.t)
            if t <= cutoff:
                ratios = hedge_ratios(comp.reduced, comp.spec, t, numer, index_t, params.t)
                h_index += comp.units * ratios.units_i
                if comp.underlying is Underlying.STOCK:
                    h_stock += comp.units * ratios.units_s
        if k == 0:
            hedged[:, 0] = analytic[:, 0]
        cash = hedged[:, k] - h_stock * stock_t - h_index * index_t
        growth = math.exp(params.r * float(times[k + 1] - times[k]))
        hedged[:, k + 1] = (h_stock * batch.stock_values[:, k + 1]
                            + h_index * batch.index_values[:, k + 1] + cash * growth)
    terminal = TerminalSample(batch.index_values[:, -1], batch.stock_values[:, -1])
    analytic[:, -1] = terminal_wealth(strategy, terminal.index,
                                      terminal_log_ratios(params, terminal, *Underlying))
    return analytic, hedged


class TestWealthLoop:
    # SET_A holds its cor_3delta tails at_most, mu_i = 0 at_least; both
    # have stock and bond components
    @pytest.mark.parametrize("mu_i,variant", [(0.06, "two_sided"), (0.06, "cor_3delta"),
                                              (0.0, "cor_3delta")])
    @pytest.mark.parametrize("cutoff", [4.6, -1.0])
    def test_equals_public_function_loop(self, mu_i, variant, cutoff):
        params = MarketParams(**{**SET_A, "mu_i": mu_i})
        if variant == "two_sided":
            strat = build_two_sided(params, 0.05)
        else:
            strat = build_capm_composite(params, 0.05, variant)
        batch = simulate_paths(params, Measure.PHYSICAL, 24, 300, 29)
        track = wealth_tracks(strat, params, batch, cutoff)
        analytic, hedged = _reference_tracks(strat, params, batch, cutoff)
        assert np.array_equal(track.analytic, analytic)
        assert np.array_equal(track.hedged, hedged)

    def test_both_directions_on_both_underlyings(self):
        kinds = set()
        for mu_i in (0.06, 0.0):
            strat = build_capm_composite(MarketParams(**{**SET_A, "mu_i": mu_i}),
                                         0.05, "cor_3delta")
            kinds |= {(c.underlying, c.spec.direction) for c in strat.components}
        assert kinds == {(u, d) for u in Underlying for d in Direction}

    @pytest.mark.parametrize("driver", [0, 1])
    def test_underflowed_prices_are_rejected(self, set_a, driver):
        # a huge negative increment on driver 0 sends both prices to 0.0,
        # on driver 1 only the stock (the index does not load on it); the
        # sampler rejects that grid, so the zeros go into a grid built from
        # zero increments, which the replication must reject as well
        times = np.linspace(0.0, set_a.t, 5)
        increments = np.zeros((3, 4, 2))
        increments[1, 1, driver] = -1e4
        with pytest.raises(ValueError, match="strictly positive"):
            paths_from_increments(set_a, Measure.PHYSICAL, times, increments)
        batch = paths_from_increments(set_a, Measure.PHYSICAL, times, np.zeros((3, 4, 2)))
        batch.stock_values[1, 2:] = 0.0
        if driver == 0:
            batch.index_values[1, 2:] = 0.0
        strat = build_two_sided(set_a, 0.05)
        with pytest.raises(ValueError, match="strictly positive"):
            wealth_tracks(strat, set_a, batch, _cutoff(set_a, 4))

    def test_nan_prices_are_rejected(self, set_a):
        # NaN prices, which a "<= 0" test would let through into NaN
        # wealth; ``paths_from_increments`` rejects NaN increments, so the
        # NaN goes into the grid of a batch built from zeros
        batch = paths_from_increments(set_a, Measure.PHYSICAL,
                                      np.linspace(0.0, set_a.t, 5), np.zeros((3, 4, 2)))
        batch.index_values[1, 2:] = math.nan
        assert math.isnan(batch.index_values[1, 2])
        strat = build_two_sided(set_a, 0.05)
        with pytest.raises(ValueError, match="strictly positive"):
            wealth_tracks(strat, set_a, batch, _cutoff(set_a, 4))

    @pytest.mark.parametrize("bad", [math.nan, 0.0, math.inf])
    def test_terminal_prices_are_checked(self, set_a, bad):
        # the last column, which only the last step's hedged update and
        # the terminal payoff read, is checked like the others
        batch = paths_from_increments(set_a, Measure.PHYSICAL,
                                      np.linspace(0.0, set_a.t, 5), np.zeros((3, 4, 2)))
        batch.index_values[1, -1] = bad
        strat = build_two_sided(set_a, 0.05)
        with pytest.raises(ValueError, match="finite and strictly positive"):
            wealth_tracks(strat, set_a, batch, _cutoff(set_a, 4))

    def test_overflowing_ratio_is_rejected(self, set_a):
        # two finite positive prices whose ratio overflows, without a warning
        replication = Replication(build_two_sided(set_a, 0.05), set_a, 4.6, 2)
        now = np.array([1.0, 1e-300]), np.array([1.0, 1e10])
        with pytest.raises(ValueError, match="their ratios must be finite"):
            replication.step(0.0, 1.0, now, now)

    def test_overflowing_bond_level_is_rejected(self):
        # exp(r t) = exp(800) overflows; the bond/index ratio check rejects
        # it, without an OverflowError or a warning
        params = MarketParams(**{**SET_A, "r": 100.0})
        replication = Replication(build_index_vs_bond(params, 0.05), params, 4.6, 2)
        prices = np.ones(2), np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="their ratios must be finite"):
                replication.step(8.0, 9.0, prices, prices)

    @pytest.mark.parametrize("t", [-1.0, 10.0, math.nan])
    def test_step_rejects_times_outside_the_horizon(self, set_a, t):
        replication = Replication(build_two_sided(set_a, 0.05), set_a, 4.6, 2)
        prices = np.ones(2), np.ones(2)
        with pytest.raises(ValueError, match="0 <= t < horizon"):
            replication.step(t, 1.0, prices, prices)

    def test_peak_memory_is_the_two_tracks(self, set_a):
        strat = build_two_sided(set_a, 0.05)
        batch = simulate_paths(set_a, Measure.PHYSICAL, 512, 4096, 30)
        tracemalloc.start()
        try:
            track = wealth_tracks(strat, set_a, batch, _cutoff(set_a, 512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= track.analytic.nbytes + track.hedged.nbytes + 2 * 2**20


class TestEvents:
    def test_centered_ratio_inside_band(self, set_a):
        red = reduce_dimension(set_a)
        ratio = math.exp(-0.5 * red.delta_norm**2 * set_a.t)
        terminal = TerminalSample(np.array([1.0]), np.array([ratio]))
        log_ratio = terminal_log_ratios(set_a, terminal, Underlying.STOCK)[Underlying.STOCK]
        for delta in (0.9, 0.5, 0.05):
            assert event_two_sided(set_a, delta, log_ratio)[0]

    def test_boundary_levels_reference(self, set_a):
        # band edges in log space; frozen from 40-digit arithmetic
        from eihlab.analytic import log_thresholds
        red = reduce_dimension(set_a)
        log_a, log_b = log_thresholds(red.delta_norm, set_a.t, 0.05)
        assert log_a == pytest.approx(-1.2798513846259783, abs=1e-12)
        assert log_b == pytest.approx(0.9548513846259783, abs=1e-12)

    def test_indicator_closed_at_threshold(self):
        spec = DigitalSpec(Direction.AT_LEAST, 0.3)
        assert bool(spec.payoff_indicator(0.3))
        spec = DigitalSpec(Direction.AT_MOST, 0.3)
        assert bool(spec.payoff_indicator(0.3))

    def test_complement_exactness_on_random_markets(self):
        gen = np.random.default_rng(31)
        for trial in range(10):
            params = random_market(gen)
            delta = float(gen.uniform(0.01, 0.9))
            strat = build_two_sided(params, delta)
            out = simulate_terminal(params, Measure.PHYSICAL, 20_000, 1000 + trial)
            log_ratios = terminal_log_ratios(params, out, Underlying.STOCK)
            event = event_two_sided(params, delta, log_ratios[Underlying.STOCK])
            fires = strategy_fires(strat, log_ratios)
            assert int((event == fires).sum()) == 0

    @pytest.mark.parametrize("stock, index", [
        ((1.0, 1.0), (1.0, 1e-320)),  # a subnormal index overflows the ratio
        ((1.0, 1e-320), (1.0, 1e10)),  # a ratio that underflows to 0.0
    ], ids=["overflow", "underflow"])
    def test_ratio_out_of_float_range_is_rejected(self, set_a, stock, index):
        # finite positive prices whose stock/index ratio is 0.0 or inf, which
        # would be counted on an infinite log ratio (pytest makes a
        # RuntimeWarning an error, so none is raised either); payoffs and
        # events read the log ratios that ``terminal_log_ratios`` checks
        terminal = TerminalSample(np.array(index), np.array(stock))
        for underlyings in ((Underlying.STOCK,), (Underlying.BOND, Underlying.STOCK)):
            with pytest.raises(ValueError, match="the market leaves the float range"):
                terminal_log_ratios(set_a, terminal, *underlyings)
        strat, stock_only = build_two_sided(set_a, 0.05), (set_a, terminal, Underlying.STOCK)
        with pytest.raises(ValueError, match="the market leaves the float range"):
            strategy_fires(strat, terminal_log_ratios(*stock_only))
        with pytest.raises(ValueError, match="the market leaves the float range"):
            event_two_sided(set_a, 0.05, terminal_log_ratios(*stock_only)[Underlying.STOCK])
        # the bond/index log ratio r T - ln I forms no S/I, and is finite here
        bond = terminal_log_ratios(set_a, terminal, Underlying.BOND)[Underlying.BOND]
        assert np.isfinite(bond).all()

    @pytest.mark.parametrize("bad", [math.nan, 0.0, math.inf])
    def test_terminal_log_ratios_check_prices_and_read_what_is_asked(self, set_a, bad):
        out = simulate_terminal(set_a, Measure.PHYSICAL, 1000, 32)
        both = terminal_log_ratios(set_a, out, *Underlying)
        assert np.array_equal(both[Underlying.STOCK], np.log(out.stock / out.index))
        assert np.array_equal(both[Underlying.BOND], set_a.r * set_a.t - np.log(out.index))
        for underlying in Underlying:
            assert terminal_log_ratios(set_a, out, underlying).keys() == {underlying}
        for k in range(2):
            prices = [out.index.copy(), out.stock.copy()]
            prices[k][7] = bad
            with pytest.raises(ValueError, match="terminal prices must be finite and strictly"):
                terminal_log_ratios(set_a, TerminalSample(*prices), Underlying.BOND)


class TestBoundCheck:
    def test_reference_values(self, set_a):
        report = bound_check(set_a, 0.05, 0.05, "mu_bis")
        assert report.lhs == pytest.approx(0.0175, abs=1e-15)
        # (z_.05 + z_.05) * 0.180278 / sqrt(10); frozen from 40-digit arithmetic
        assert report.rhs == pytest.approx(0.18754216833352543, abs=1e-12)
        assert report.holds

    def test_exact_capm_holds_for_any_horizon(self, set_a):
        from eihlab.experiments import exact_capm_params
        for t in (0.1, 1.0, 100.0, 10_000.0):
            from dataclasses import replace
            p = exact_capm_params(replace(set_a, t=t))
            assert drift_gap(p) == pytest.approx(0.0, abs=1e-16)
            assert bound_check(p, 0.05, 0.05, "mu_bis").holds

    def test_bond_gap_reference(self, set_a):
        assert bond_drift_gap(set_a) == pytest.approx(0.02 - 0.06 + 0.025, abs=1e-15)

    def test_conjunction_implications_on_random_sets(self):
        gen = np.random.default_rng(77)
        checked_capm1 = 0
        checked_final = 0
        for _ in range(2_000):
            params = random_market(gen)
            delta = float(gen.uniform(0.01, 0.5))
            eps = float(gen.uniform(0.01, 0.5))
            mu_bis = bound_check(params, delta, eps, "mu_bis")
            index = bound_check(params, delta, eps, "index")
            capm1 = bound_check(params, delta, eps, "capm1")
            final = bound_check(params, delta, eps, "capm_final")
            if mu_bis.holds and index.holds:
                checked_capm1 += 1
                assert capm1.holds
            if index.holds and capm1.holds:
                checked_final += 1
                assert final.holds
        # the random sampler must actually exercise the antecedents
        assert checked_capm1 > 50 and checked_final > 50

    def test_mu_variant_uses_half_mass_quantile(self, set_a):
        # the two-sided bound is wider than the one-sided one because
        # z_{delta/2} > z_delta
        mu = bound_check(set_a, 0.05, 0.05, "mu")
        mu_bis = bound_check(set_a, 0.05, 0.05, "mu_bis")
        assert mu.lhs == mu_bis.lhs
        assert mu.rhs > mu_bis.rhs

    def test_unknown_bound_rejected(self, set_a):
        with pytest.raises(ValueError):
            bound_check(set_a, 0.05, 0.05, "nope")


@pytest.mark.parametrize("module", [analytic, strategies], ids=lambda m: m.__name__)
def test_exports_resolve(module):
    # a deleted name must leave no entry behind in ``__all__``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
