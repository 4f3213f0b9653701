"""Digital claim pricing, thresholds, and hedge ratios."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from eihlab import quadrature, rng
from eihlab.analytic import (
    DigitalSpec,
    Direction,
    claim_value,
    digital_price,
    gaussian_halfspace_expectation,
    hedge_ratios,
    log_thresholds,
    thresholds,
)
from eihlab.market import Measure, reduce_dimension, simulate_paths, simulate_terminal
from eihlab.normal import std_normal_cdf, upper_quantile
from eihlab.quadrature import halfspace_quadrature


class TestHalfspaceExpectation:
    def test_plain_halfspace_probability(self):
        assert gaussian_halfspace_expectation((0.0, 0.0), (1.0, 0.0), 0.0) == 0.5

    def test_aligned_tilt(self):
        # e^{1/2} F(0); frozen from 40-digit arithmetic
        value = gaussian_halfspace_expectation((1.0, 0.0), (1.0, 0.0), 1.0)
        assert value == pytest.approx(0.8243606353500641, abs=1e-15)

    def test_generic_triple_against_quadrature(self):
        u, v, c = (0.3, -0.2), (0.1, 0.4), 0.25
        closed = gaussian_halfspace_expectation(u, v, c)
        assert closed == pytest.approx(halfspace_quadrature(u, v, c), abs=1e-8)

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            gaussian_halfspace_expectation((1.0, 0.0), (0.0, 0.0), 0.0)

    def test_random_triples_match_quadrature(self):
        gen = np.random.default_rng(5)
        worst = 0.0
        for _ in range(25):
            u = gen.uniform(-1.4, 1.4, size=2)
            v = gen.uniform(-1.4, 1.4, size=2)
            if np.linalg.norm(v) < 0.05:
                v = np.array([0.5, 0.1])
            c = gen.uniform(-3.0, 3.0)
            gap = abs(gaussian_halfspace_expectation(u, v, c)
                      - halfspace_quadrature(u, v, c))
            worst = max(worst, gap)
        assert worst <= 1e-8

    @given(
        st.floats(-1.4, 1.4), st.floats(-1.4, 1.4),
        st.floats(-1.4, 1.4), st.floats(-1.4, 1.4),
        st.floats(-3.0, 3.0),
    )
    def test_bounded_by_exponential_moment(self, u1, u2, v1, v2, c):
        u = np.array([u1, u2])
        v = np.array([v1, v2])
        if np.linalg.norm(v) < 1e-6:
            return
        value = gaussian_halfspace_expectation(u, v, c)
        bound = math.exp(0.5 * float(u @ u))
        # open interval (0, bound) up to CDF saturation in the far tails
        assert 0.0 <= value <= bound
        tail_arg = (float(u @ v) - c) / np.linalg.norm(v)
        if abs(tail_arg) < 8.0:
            assert 0.0 < value < bound


class TestQuadratureRules:
    @pytest.mark.parametrize("build", [hermgauss, leggauss])
    def test_cached_rule_is_read_only(self, build):
        for array in quadrature._rule(build, 64):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi),
        st.floats(0.05, 2.0), st.floats(0.0, 2.0 * math.pi),
        st.floats(-3.0, 3.0), st.sampled_from([16, 64]),
    )
    def test_equals_evaluation_on_fresh_nodes(self, r_u, angle_u, r_v, angle_v, c, n_nodes):
        u = r_u * np.array([math.cos(angle_u), math.sin(angle_u)])
        v = r_v * np.array([math.cos(angle_v), math.sin(angle_v)])
        cached = halfspace_quadrature(u, v, c, n_nodes=n_nodes)
        with mock.patch.object(quadrature, "_rule", lambda build, n: build(n)):
            fresh = halfspace_quadrature(u, v, c, n_nodes=n_nodes)
        assert cached == fresh


class TestThresholds:
    def test_reference_values(self, set_a):
        red = reduce_dimension(set_a)
        a, b = thresholds(red, set_a.t, 0.05)
        # frozen from 40-digit arithmetic on the defining identities
        assert math.log(b) == pytest.approx(0.9548513846259783, abs=1e-12)
        assert b == pytest.approx(2.5982844092152675, rel=1e-12)
        assert math.log(a) == pytest.approx(-1.2798513846259783, abs=1e-12)
        assert a == pytest.approx(0.2780786241411846, rel=1e-12)
        assert a < b

    def test_degenerate_full_mass_collapses_band(self, set_a):
        # delta = 1 makes the quantile vanish; internal hook, the public
        # surface rejects it
        red = reduce_dimension(set_a)
        log_a, log_b = log_thresholds(red.delta_norm, set_a.t, 1.0)
        center = -0.5 * red.delta_norm**2 * set_a.t
        assert log_a == log_b == pytest.approx(center, abs=1e-15)

    def test_vanishing_mass_spreads_band(self, set_a):
        red = reduce_dimension(set_a)
        a_values, b_values = zip(*(thresholds(red, set_a.t, d)
                                   for d in (1e-2, 1e-6, 1e-12, 1e-300)))
        assert np.all(np.diff(a_values) < 0.0)
        assert np.all(np.diff(b_values) > 0.0)
        assert a_values[-1] < 1e-8 and b_values[-1] > 1e8

    def test_rejects_bad_delta(self, set_a):
        red = reduce_dimension(set_a)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                thresholds(red, set_a.t, bad)


class TestDigitalPrice:
    def test_tiny_threshold_pays_index_always(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec(Direction.AT_LEAST, -600.0)
        assert digital_price(red, spec, set_a.t) == pytest.approx(1.0, abs=1e-12)

    def test_band_components_price_half_delta(self, set_a):
        red = reduce_dimension(set_a)
        for delta in (0.01, 0.05, 0.25, 0.999):
            a, b = thresholds(red, set_a.t, delta)
            low = digital_price(red, DigitalSpec.at_level(Direction.AT_MOST, a), set_a.t)
            high = digital_price(red, DigitalSpec.at_level(Direction.AT_LEAST, b), set_a.t)
            assert low == pytest.approx(delta / 2.0, abs=1e-12)
            assert high == pytest.approx(delta / 2.0, abs=1e-12)
            assert low + high == pytest.approx(delta, abs=1e-12)

    def test_at_money_price_reference(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, 1.0)
        # F(-0.1625 / 0.570088); frozen from 40-digit arithmetic
        assert digital_price(red, spec, 10.0) == pytest.approx(
            0.3878052712710187, abs=1e-13)

    def test_at_money_price_against_risk_neutral_mc(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, 1.0)
        n = 10**6
        out = simulate_terminal(set_a, Measure.RISK_NEUTRAL, n, 202)
        payoff = math.exp(-set_a.r * set_a.t) * out.index * spec.payoff_indicator(
            np.log(out.stock / out.index))
        se = payoff.std(ddof=1) / math.sqrt(n)
        assert abs(payoff.mean() - digital_price(red, spec, set_a.t)) <= 3.0 * se

    def test_monotone_in_threshold(self, set_a):
        red = reduce_dimension(set_a)
        levels = np.exp(np.linspace(-1.0, 1.0, 21))
        at_least = [digital_price(red, DigitalSpec.at_level(Direction.AT_LEAST, lv), 10.0)
                    for lv in levels]
        at_most = [digital_price(red, DigitalSpec.at_level(Direction.AT_MOST, lv), 10.0)
                   for lv in levels]
        assert np.all(np.diff(at_least) < 0.0)
        assert np.all(np.diff(at_most) > 0.0)

    def test_rejects_bad_tau(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, 1.0)
        for tau in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="tau"):
                digital_price(red, spec, tau)


class TestClaimValue:
    def test_inception_consistency(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, 1.3)
        assert claim_value(red, spec, 0.0, 1.0, 1.0, set_a.t) == pytest.approx(
            digital_price(red, spec, set_a.t), abs=1e-15)

    def test_resolves_to_index_near_expiry(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, 1.0)
        value = claim_value(red, spec, set_a.t - 1e-9, 1.5, 1.1, set_a.t)
        assert value == pytest.approx(1.1, rel=1e-12)
        value = claim_value(red, spec, set_a.t - 1e-9, 0.7, 1.1, set_a.t)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_midlife_value_against_nested_mc(self, set_a):
        red = reduce_dimension(set_a)
        _, b = thresholds(red, set_a.t, 0.05)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, b)
        t, s_t, i_t = 5.0, 1.2, 1.0
        value = claim_value(red, spec, t, s_t, i_t, set_a.t)

        # oracle: restart the exact risk-neutral solution from (s_t, i_t)
        n = 10**6
        tau = set_a.t - t
        xi = rng.normal_pairs(404, 0, n)
        sq = math.sqrt(tau)
        i_term = i_t * np.exp((set_a.r - 0.5 * red.norm_i**2) * tau
                              + sq * (xi @ red.sigma_i_bar))
        s_term = s_t * np.exp((set_a.r - 0.5 * red.norm_s**2) * tau
                              + sq * (xi @ red.sigma_s_bar))
        payoff = math.exp(-set_a.r * tau) * i_term * spec.payoff_indicator(
            np.log(s_term / i_term))
        se = payoff.std(ddof=1) / math.sqrt(n)
        assert abs(payoff.mean() - value) <= 3.0 * se

    def test_discounted_value_is_martingale_along_paths(self, set_a):
        red = reduce_dimension(set_a)
        _, b = thresholds(red, set_a.t, 0.1)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, b)
        n = 10**5
        batch = simulate_paths(set_a, Measure.RISK_NEUTRAL, 8, n, 505)
        v0 = digital_price(red, spec, set_a.t)
        for k, t in enumerate(batch.times[:-1]):
            values = math.exp(-set_a.r * float(t)) * claim_value(
                red, spec, float(t), batch.stock_values[:, k],
                batch.index_values[:, k], set_a.t)
            se = values.std(ddof=1) / math.sqrt(n)
            # the floor covers t=0, where all paths coincide and the
            # sample mean differs from v0 only by summation rounding
            assert abs(values.mean() - v0) <= max(4.0 * se, 1e-14)

    def test_rejects_expired_time(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, 1.0)
        with pytest.raises(ValueError):
            claim_value(red, spec, set_a.t, 1.0, 1.0, set_a.t)

    def test_rejects_infinite_horizon(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_MOST, 0.8)
        for valuation in (claim_value, hedge_ratios):
            with pytest.raises(ValueError, match="horizon"):
                valuation(red, spec, 0.0, 1.0, 1.0, math.inf)

    @pytest.mark.parametrize("d", [8.3, 9.0])
    def test_at_most_value_keeps_its_far_tail(self, set_a, d):
        # at t = 9, S = I = 1, the threshold puts the standardized
        # distance at d, where 1 - F(d) rounds to 0 but F(-d) does not
        red = reduce_dimension(set_a)
        t, tau = 9.0, 1.0
        delta_norm = red.delta_norm
        spec = DigitalSpec(Direction.AT_MOST, -0.5 * delta_norm**2 * tau - d * delta_norm)
        value = claim_value(red, spec, t, 1.0, 1.0, set_a.t)
        d_kernel = (0.0 - spec.log_threshold - 0.5 * delta_norm**2 * tau) / delta_norm
        assert d_kernel == pytest.approx(d, rel=1e-14)
        assert value > 0.0
        assert value == pytest.approx(std_normal_cdf(-d_kernel), rel=1e-14)

    def test_nan_prices_are_rejected(self, set_a):
        # also an infinite price, and finite prices whose ratio underflows
        # to 0.0 (its log would be -inf); no warning
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_MOST, 0.8)
        for s_t, i_t in ((math.nan, 1.0), (1.0, np.array([1.0, math.nan])),
                         (math.inf, 10.0), (1.0, np.array([1.0, math.inf])),
                         (1e-320, 1e10)):
            with pytest.raises(ValueError, match="strictly positive"):
                claim_value(red, spec, 1.0, s_t, i_t, set_a.t)
            with pytest.raises(ValueError, match="strictly positive"):
                hedge_ratios(red, spec, 1.0, s_t, i_t, set_a.t)
        # no price is out of range in an empty batch, whose values are empty
        empty = np.empty(0)
        assert claim_value(red, spec, 1.0, empty, empty, set_a.t).shape == (0,)
        assert [x.shape for x in hedge_ratios(red, spec, 1.0, empty, empty, set_a.t)] == [(0,)] * 2


class TestHedgeRatios:
    def test_value_is_degree_one_homogeneous(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_LEAST, 1.4)
        v = claim_value(red, spec, 3.0, 1.1, 0.9, set_a.t)
        v2 = claim_value(red, spec, 3.0, 2.2, 1.8, set_a.t)
        assert v2 == pytest.approx(2.0 * v, rel=1e-12)

    def test_bond_leg_vanishes(self, set_a):
        red = reduce_dimension(set_a)
        gen = np.random.default_rng(8)
        for direction in Direction:
            spec = DigitalSpec.at_level(direction, 1.2)
            for _ in range(50):
                t = gen.uniform(0.0, set_a.t * 0.99)
                s = gen.uniform(0.3, 3.0)
                i = gen.uniform(0.3, 3.0)
                ratios = hedge_ratios(red, spec, t, s, i, set_a.t)
                value = claim_value(red, spec, t, s, i, set_a.t)
                assert abs(ratios.units_s * s + ratios.units_i * i - value) <= 1e-10

    def test_units_match_finite_differences(self, set_a):
        red = reduce_dimension(set_a)
        for direction in Direction:
            spec = DigitalSpec.at_level(direction, 1.1)
            t, s, i = 2.0, 1.15, 0.95
            ratios = hedge_ratios(red, spec, t, s, i, set_a.t)
            h_s = 1e-5 * s
            fd_s = (claim_value(red, spec, t, s + h_s, i, set_a.t)
                    - claim_value(red, spec, t, s - h_s, i, set_a.t)) / (2.0 * h_s)
            assert ratios.units_s == pytest.approx(fd_s, rel=1e-6)
            h_i = 1e-5 * i
            fd_i = (claim_value(red, spec, t, s, i + h_i, set_a.t)
                    - claim_value(red, spec, t, s, i - h_i, set_a.t)) / (2.0 * h_i)
            assert ratios.units_i == pytest.approx(fd_i, rel=1e-6)

    def test_replication_value_matches_claim(self, set_a):
        red = reduce_dimension(set_a)
        spec = DigitalSpec.at_level(Direction.AT_MOST, 0.8)
        t, s, i = 4.0, 0.9, 1.2
        ratios = hedge_ratios(red, spec, t, s, i, set_a.t)
        value = claim_value(red, spec, t, s, i, set_a.t)
        assert ratios.units_s * s + ratios.units_i * i == pytest.approx(value, rel=1e-12)


class TestQuantileBridge:
    def test_band_masses_follow_quantiles(self, set_a):
        # consistency between upper_quantile and the band construction
        red = reduce_dimension(set_a)
        delta = 0.2
        log_a, log_b = log_thresholds(red.delta_norm, set_a.t, delta)
        z = upper_quantile(delta / 2.0)
        width = z * red.delta_norm * math.sqrt(set_a.t)
        center = -0.5 * red.delta_norm**2 * set_a.t
        assert log_b == pytest.approx(center + width, abs=1e-15)
        assert log_a == pytest.approx(center - width, abs=1e-15)
