"""Verification experiments: verdicts, targets, determinism."""

import concurrent.futures
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eihlab import analytic, experiments, rng
from eihlab.experiments import (
    CHUNK_PATHS,
    INCONCLUSIVE,
    PASS,
    ExperimentConfig,
    band_probability,
    capm_convergence_study,
    exact_capm_params,
    hedging_fidelity_study,
    lemma_crosscheck,
    mu_bis_boundary_params,
    one_sided_beat_probability,
    report_to_dict,
    verify,
    wilson_ci,
)
from eihlab.market import Measure, PathBatch, simulate_paths, simulate_terminal
from eihlab.normal import std_normal_cdf, upper_quantile
from eihlab.strategies import (
    Underlying,
    bond_drift_gap,
    bound_check,
    build_two_sided,
    drift_gap,
    event_two_sided,
    strategy_fires,
    terminal_log_ratios,
)

from conftest import random_market, wealth_tracks


class TestWilsonCI:
    def test_basic_shape(self):
        low, high = wilson_ci(90, 100)
        assert 0.0 <= low < 0.9 < high <= 1.0

    def test_extreme_counts_stay_in_unit_interval(self):
        assert wilson_ci(0, 50)[0] == 0.0
        assert wilson_ci(50, 50)[1] == 1.0
        assert wilson_ci(0, 50)[1] < 0.1
        assert wilson_ci(50, 50)[0] > 0.9

    def test_empty_sample(self):
        assert wilson_ci(0, 0) == (0.0, 1.0)

    @pytest.mark.parametrize("trials", [1, 100, 1000, 10**6])
    def test_endpoints_are_exact_at_no_and_all_successes(self, trials):
        # center - margin cancels here: 2.2e-19 at 1000 trials, not 0
        assert wilson_ci(0, trials)[0] == 0.0
        assert wilson_ci(trials, trials)[1] == 1.0

    def test_coverage_on_synthetic_bernoulli(self):
        # 1000 repetitions of n=1000 draws at known p; the 95% interval
        # must cover p in at least 93% of them
        p_true = 0.3
        reps, n = 1000, 1000
        u = rng.uniform_pairs(8888, 0, reps * n // 2).reshape(reps, n)
        covered = 0
        for k in range(reps):
            successes = int((u[k] < p_true).sum())
            low, high = wilson_ci(successes, n)
            covered += low <= p_true <= high
        assert covered / reps >= 0.93


class TestVerifyTwoSided:
    def test_exact_capm_passes_and_covers(self, set_a):
        config = ExperimentConfig(
            params=exact_capm_params(set_a), delta=0.05, n_paths=10**5, seed=42)
        report = verify(config, "two_sided")
        assert report.verdict == PASS
        assert report.dichotomy_violations == 0
        low, high = report.wilson_ci_95
        assert low <= 0.95 <= high
        assert report.theoretical_target == pytest.approx(0.95, abs=1e-12)

    def test_biased_drift_matches_band_probability(self, set_a):
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=10**5, seed=144)
        report = verify(config, "two_sided")
        assert report.dichotomy_violations == 0
        delta_norm = set_a.delta_norm
        from eihlab.strategies import drift_gap
        target = band_probability(
            drift_gap(set_a), delta_norm, set_a.t, float(upper_quantile(0.025)))
        assert report.theoretical_target == pytest.approx(target, abs=1e-15)
        low, high = report.wilson_ci_95
        assert low <= target <= high

    def test_dichotomy_holds_under_risk_neutral_measure_too(self, set_a):
        # scope note: no event-probability claim is made off the
        # physical measure, but the payoff/event identity is measure-free
        strat = build_two_sided(set_a, 0.05)
        out = simulate_terminal(set_a, Measure.RISK_NEUTRAL, 50_000, 44)
        log_ratios = terminal_log_ratios(set_a, out, Underlying.STOCK)
        event = event_two_sided(set_a, 0.05, log_ratios[Underlying.STOCK])
        fires = strategy_fires(strat, log_ratios)
        assert int((event == fires).sum()) == 0

    def test_config_validation(self, set_a):
        with pytest.raises(ValueError):
            ExperimentConfig(params=set_a, delta=0.05, n_paths=999)
        with pytest.raises(ValueError):
            ExperimentConfig(params=set_a, delta=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(params=set_a, delta=0.05, eps=0.0)

    def test_paths_are_bounded_by_the_lanes_of_the_stream(self, set_a):
        # 2^64 paths fit the 2^64 lanes; one more is rejected before a run
        # is planned, not when the chunk that crosses the last lane is drawn
        assert ExperimentConfig(params=set_a, delta=0.05, n_paths=2**64).n_paths == 2**64
        with pytest.raises(ValueError, match=r"n_paths must be at most 2\^64"):
            ExperimentConfig(params=set_a, delta=0.05, n_paths=2**64 + 1)
        with pytest.raises(ValueError, match=r"n_paths must be at most 2\^64"):
            capm_convergence_study(set_a, 0.05, 0.05, [10.0], n_paths=2**64 + 1)

    def test_unknown_proposition_is_a_value_error(self, set_a):
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=1000)
        message = (r"unknown proposition 'nope'; "
                   r"expected one of \['index', 'mu_bis', 'two_sided'\]")
        with pytest.raises(ValueError, match=message):
            verify(config, "nope")


class TestVerifyCapm:
    def test_bound_holding_is_inconclusive(self, set_a):
        config = ExperimentConfig(params=set_a, delta=0.05, eps=0.05,
                                  n_paths=10**4, seed=45)
        report = verify(config, "mu_bis")
        assert report.verdict == INCONCLUSIVE
        assert report.bound.holds
        assert report.empirical_probability is None

    def test_boundary_violation_covers_guarantee(self, set_a):
        params = mu_bis_boundary_params(set_a, 0.05, 0.05, margin=1.0)
        assert not bound_check(params, 0.05, 0.05, "mu_bis").holds
        config = ExperimentConfig(params=params, delta=0.05, eps=0.05,
                                  n_paths=10**5, seed=46)
        report = verify(config, "mu_bis")
        assert report.verdict == PASS
        assert report.dichotomy_violations == 0
        low, high = report.wilson_ci_95
        assert low <= 0.95 <= high
        assert report.theoretical_target == pytest.approx(0.95, abs=1e-9)

    def test_double_margin_clears_guarantee(self, set_a):
        params = mu_bis_boundary_params(set_a, 0.05, 0.05, margin=2.0)
        config = ExperimentConfig(params=params, delta=0.05, eps=0.05,
                                  n_paths=10**5, seed=47)
        report = verify(config, "mu_bis")
        assert report.verdict == PASS
        assert report.wilson_ci_95[0] > 0.95

    def test_mc_matches_closed_form_target(self, set_a):
        params = mu_bis_boundary_params(set_a, 0.05, 0.05, margin=1.5)
        n = 10**5
        config = ExperimentConfig(params=params, delta=0.05, eps=0.05,
                                  n_paths=n, seed=48)
        report = verify(config, "mu_bis")
        p = report.theoretical_target
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(report.empirical_probability - p) <= 4.0 * se

    def test_target_formula(self, set_a):
        # boundary margin m: beat probability is F(m (z_d + z_e) - z_d)
        z_d = float(upper_quantile(0.05))
        z_e = float(upper_quantile(0.05))
        for margin in (1.0, 1.5, 2.0):
            params = mu_bis_boundary_params(set_a, 0.05, 0.05, margin=margin)
            delta_norm = params.delta_norm
            from eihlab.strategies import drift_gap
            got = one_sided_beat_probability(drift_gap(params), delta_norm,
                                             params.t, 0.05)
            expected = float(std_normal_cdf(margin * (z_d + z_e) - z_d))
            assert got == pytest.approx(expected, abs=1e-9)


def _inline_boundary_params(params, delta, eps, margin):
    """The boundary market by the width expression that
    ``mu_bis_boundary_params`` once wrote out itself, on the stored spread
    norm the boundary market's strategy prices with, as the oracle of
    ``bound_check``'s ``mu_bis`` width."""
    width = ((upper_quantile(delta) + upper_quantile(eps))
             * params.delta_norm / math.sqrt(params.t))
    base = exact_capm_params(params)
    return replace(base, mu_s=base.mu_s + margin * width * (1.0 + 1e-12))


class TestBoundaryParams:
    def test_width_is_bound_checks_mu_bis_width(self, set_a):
        gen = np.random.default_rng(3217)
        cases = [(set_a, 0.05, 0.05, margin) for margin in (1.0, 1.5, 2.0)]
        cases += [(random_market(gen), float(gen.uniform(1e-4, 0.9)),
                   float(gen.uniform(1e-4, 0.9)), float(gen.uniform(0.0, 3.0)))
                  for _ in range(1000)]
        for params, delta, eps, margin in cases:
            got = mu_bis_boundary_params(params, delta, eps, margin)
            assert got.mu_s == _inline_boundary_params(params, delta, eps, margin).mu_s
            width = bound_check(params, delta, eps, "mu_bis").rhs
            assert drift_gap(got) == pytest.approx(margin * width, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5])
    def test_rejects_tail_masses_outside_the_unit_interval(self, set_a, bad):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
            mu_bis_boundary_params(set_a, bad, 0.05, 1.0)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\)$"):
            mu_bis_boundary_params(set_a, 0.05, bad, 1.0)


class TestBoundsReadTheStoredGeometry:
    """Each drift bound is built from the floats its strategy, gap and
    target read: one float per geometric quantity."""

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_bounds_read_delta_norm_and_norm_i_sq_bitwise(self, d):
        gen = np.random.default_rng(3500 + d)
        for _ in range(300):
            p = random_market(gen, d)
            delta, eps = float(gen.uniform(1e-4, 0.9)), float(gen.uniform(1e-4, 0.9))
            sqrt_t, z_eps = math.sqrt(p.t), upper_quantile(eps)
            z_delta, z_half = upper_quantile(delta), upper_quantile(delta / 2.0)
            assert bound_check(p, delta, eps, "index").lhs == abs(bond_drift_gap(p))
            assert bound_check(p, delta, eps, "mu_bis").rhs == (
                (z_delta + z_eps) * p.delta_norm / sqrt_t)
            assert bound_check(p, delta, eps, "mu").rhs == (
                (z_half + z_eps) * p.delta_norm / sqrt_t)
            assert bound_check(p, delta, eps, "capm1").rhs == (
                (z_delta + z_eps) * (p.norm_i + p.delta_norm) / sqrt_t)
            final = bound_check(p, delta, eps, "capm_final")
            assert final.rhs == (z_delta + z_eps) * (p.norm_i + p.norm_s + p.delta_norm) / sqrt_t
            beta = p.cross / p.norm_i_sq
            assert final.lhs == abs(p.mu_s - p.r - beta * (p.mu_i - p.r))


class TestVerifyIndexPremium:
    def test_pinned_premium_reports_recover_band(self, set_a):
        norm_i_sq = float(set_a.sigma_i @ set_a.sigma_i)
        params = replace(set_a, mu_i=set_a.r + norm_i_sq)
        config = ExperimentConfig(params=params, delta=0.05, eps=0.05,
                                  n_paths=10**5, seed=49)
        report = verify(config, "index")
        assert report.bound.holds          # zero premium gap
        assert report.verdict == INCONCLUSIVE
        low = report.extras["recover_ci_low"]
        high = report.extras["recover_ci_high"]
        assert low <= 0.95 <= high
        assert report.extras["recover_target"] == pytest.approx(0.95, abs=1e-12)
        assert report.dichotomy_violations == 0

    def test_zero_premium_with_long_horizon_beats(self, set_a):
        norm_i = float(np.linalg.norm(set_a.sigma_i))
        z_sum = float(upper_quantile(0.05)) * 2.0
        horizon = (2.0 * z_sum / norm_i) ** 2
        params = replace(set_a, mu_i=set_a.r, t=horizon)
        assert not bound_check(params, 0.05, 0.05, "index").holds
        config = ExperimentConfig(params=params, delta=0.05, eps=0.05,
                                  n_paths=10**5, seed=50)
        report = verify(config, "index")
        assert report.verdict == PASS
        assert report.wilson_ci_95[0] >= 0.95

    def test_degenerate_half_masses_fail_bound_for_long_horizons(self, set_a):
        params = replace(set_a, t=5000.0)
        report = bound_check(params, 0.5, 0.5, "index")
        assert not report.holds  # z-sum is zero, any nonzero gap violates


class TestConvergenceStudy:
    def test_slopes_and_width_ratio(self, set_a):
        study = capm_convergence_study(set_a, 0.05, 0.05, [10.0, 40.0],
                                       n_paths=10**4, seed=51)
        for slope in study.slopes.values():
            assert slope == pytest.approx(-0.5, abs=1e-9)
        first, second = study.rows
        for name in ("width_mu_bis", "width_index", "width_capm1", "width_capm_final"):
            assert second[name] / first[name] == pytest.approx(0.5, abs=1e-12)

    def test_tpd_check_within_errors(self, set_a):
        study = capm_convergence_study(set_a, 0.05, 0.05, [10.0],
                                       n_paths=10**5, seed=52)
        row = study.rows[0]
        assert row["tpd_target"] == pytest.approx(-0.1625, abs=1e-12)
        assert abs(row["tpd_mc_mean"] - row["tpd_target"]) <= 4.0 * row["tpd_se"]

    @pytest.mark.parametrize("mu_i", [-72.0, -73.0, -74.0])
    def test_subnormal_prices_keep_the_mean_log_ratio(self, set_a, mu_i):
        # exact_capm_params makes the log ratio independent of mu_i; at
        # mu_i -74 both terminal prices are near 4e-322 and keep about six
        # significant bits, but the log ratios are taken from the log levels
        def tpd_mc_mean(params):
            study = capm_convergence_study(params, 0.05, 0.05, [2.5, 10.0], n_paths=2000,
                                           seed=42)
            return study.rows[-1]["tpd_mc_mean"]

        reference = tpd_mc_mean(set_a)
        assert reference == pytest.approx(-0.16280662069740795, abs=1e-12)
        assert tpd_mc_mean(replace(set_a, mu_i=mu_i)) == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("n_paths", [-1, 0, 1])
    def test_a_standard_error_needs_two_paths(self, set_a, n_paths):
        # one path would report a standard error of 0, an exact mean
        with pytest.raises(ValueError, match="^n_paths must be at least 2 for a standard error$"):
            capm_convergence_study(set_a, 0.05, 0.05, [2.5, 10.0], n_paths=n_paths)
        (row,) = capm_convergence_study(set_a, 0.05, 0.05, [10.0], n_paths=2).rows
        assert row["tpd_se"] > 0.0

    @pytest.mark.parametrize("n_paths", [2, 10])
    def test_standard_error_is_the_sample_one(self, set_a, n_paths):
        # the divisor is n - 1; a population variance would read
        # sqrt((n - 1) / n) of it, 0.71 at two paths
        (row,) = capm_convergence_study(set_a, 0.05, 0.05, [10.0], n_paths=n_paths,
                                        seed=42).rows
        p_t = replace(exact_capm_params(set_a), t=10.0)
        terminal = simulate_terminal(p_t, Measure.PHYSICAL, n_paths, 42)
        log_ratios = terminal_log_ratios(p_t, terminal, Underlying.STOCK)[Underlying.STOCK]
        assert row["tpd_mc_mean"] == pytest.approx(log_ratios.mean(), rel=1e-12)
        assert row["tpd_se"] == pytest.approx(
            np.std(log_ratios, ddof=1) / math.sqrt(n_paths), rel=1e-12)

    def test_rejects_bad_grids(self, set_a):
        with pytest.raises(ValueError):
            capm_convergence_study(set_a, 0.05, 0.05, [])
        with pytest.raises(ValueError):
            capm_convergence_study(set_a, 0.05, 0.05, [10.0, 5.0])
        with pytest.raises(ValueError):
            capm_convergence_study(set_a, 0.05, 0.05, [-1.0, 5.0])


class TestLemmaCrosscheck:
    def test_quadrature_agreement(self):
        rows = lemma_crosscheck(25, seed=53, n_mc=2_000)
        assert max(row["abs_gap"] for row in rows) <= 1e-8

    def test_mc_agreement_large_sample(self):
        rows = lemma_crosscheck(1, seed=54, n_mc=10**7)
        (row,) = rows
        assert abs(row["mc_mean"] - row["closed_form"]) <= 4.0 * row["mc_se"]

    def test_rows_are_a_prefix_in_the_trial_count(self):
        # trial k reads lane k of blocks 0-2 and its own Monte Carlo seed,
        # and draws are pure in (seed, lane, block)
        five, three = (lemma_crosscheck(n, seed=61, n_mc=500) for n in (5, 3))
        assert five[:3] == three

    def test_zero_tilt_reduces_to_tail_probability(self):
        from eihlab.analytic import gaussian_halfspace_expectation
        value = gaussian_halfspace_expectation((0.0, 0.0), (0.3, 0.4), 0.25)
        assert value == pytest.approx(float(std_normal_cdf(-0.25 / 0.5)), abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lemma_crosscheck(0, seed=1)

    @pytest.mark.parametrize("n_draws", [0, 1])
    def test_rejects_fewer_than_two_monte_carlo_draws(self, n_draws):
        # no standard error from one draw, no mean from none: a ValueError,
        # not a RuntimeWarning and a NaN; the crosscheck gets it from there
        from eihlab.quadrature import halfspace_monte_carlo
        with pytest.raises(ValueError, match="n_draws must be at least 2"):
            halfspace_monte_carlo((0.1, 0.2), (0.3, 0.4), 0.25, n_draws, 1)
        with pytest.raises(ValueError, match="n_draws must be at least 2"):
            lemma_crosscheck(1, seed=1, n_mc=n_draws)

    def test_largest_seed_wraps_the_monte_carlo_seeds(self):
        from eihlab.quadrature import halfspace_monte_carlo
        rows = lemma_crosscheck(2, seed=2**64 - 1, n_mc=100)
        for trial, row in enumerate(rows):
            u, v = (row["u1"], row["u2"]), (row["v1"], row["v2"])
            mc = halfspace_monte_carlo(u, v, row["c"], 100, trial)
            assert (row["mc_mean"], row["mc_se"]) == mc


class TestHedgingStudy:
    def test_smoke_and_nonnegativity(self, set_a):
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=1000, seed=55)
        rows = hedging_fidelity_study(config, step_counts=(32, 64))
        assert [row["n_steps"] for row in rows] == [32, 64]
        for row in rows:
            assert row["analytic_negative_count"] == 0
            assert row["rms_error"] > 0.0
        assert rows[1]["median_abs_error"] < rows[0]["median_abs_error"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_one_simulation_per_step_count(self, set_a, workers, monkeypatch):
        # unsorted and repeated step counts; in chunks of 4,096, 5,000
        # paths leave a partial chunk of 904 and 4,097 paths one of a
        # single path, whose per-step products must round as a batch's
        step_counts = (128, 32, 64, 128)
        for n_paths, seed in ((5000, 58), (4097, 3)):
            config = ExperimentConfig(params=set_a, delta=0.05, n_paths=n_paths, seed=seed,
                                      n_workers=workers)
            rows, errors = _study(monkeypatch, config, step_counts, chunk_size=4096)
            reference = _reference(config, step_counts)
            assert rows == [reference[m][0] for m in step_counts]
            for m in step_counts:
                assert np.array_equal(errors[m], reference[m][1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_size_changes_no_float(self, set_a, workers, monkeypatch):
        # 20,000 paths: chunks of 4,096 (four and a partial one), of
        # 16,384 (one and a partial one) and one chunk of CHUNK_PATHS
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=20_000, seed=60,
                                  n_workers=workers)
        step_counts = (16, 4)
        runs = [_study(monkeypatch, config, step_counts, chunk_size)
                for chunk_size in (4096, 16384, CHUNK_PATHS)]
        for rows, errors in runs[1:]:
            assert rows == runs[0][0]
            for m in step_counts:
                assert np.array_equal(errors[m], runs[0][1][m])

    def test_one_cdf_per_claim_per_path_step(self, set_a, monkeypatch):
        # the band strategy holds two claims, each valued and hedged from
        # one CDF of n values per fine step, which every step count reads:
        # 2 n (largest step count) in all
        counted = []

        def counting(x):
            out = std_normal_cdf(x)
            counted.append(np.size(out))
            return out

        monkeypatch.setattr(analytic, "std_normal_cdf", counting)
        n_paths, step_counts = 1000, (16, 4, 8)
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=n_paths, seed=61)
        hedging_fidelity_study(config, step_counts)
        assert sum(counted) == 2 * n_paths * max(step_counts)

    def test_a_row_depends_only_on_its_step_count_and_the_finest(self, set_a):
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=1000, seed=62)
        rows = hedging_fidelity_study(config, (64, 128, 256, 512))
        assert hedging_fidelity_study(config, (512,)) == rows[-1:]
        assert hedging_fidelity_study(config, (64, 512))[0] == rows[0]

    def test_last_step_rebalances_when_the_step_count_is_no_power_of_two(self, set_a,
                                                                        monkeypatch):
        # here linspace(0, T, 101)[99] lies one ulp above T (1 - 1/100), so
        # the rebalance cutoff of T (1 - 1/100) that the study once took
        # held the previous units over the last step
        params = replace(set_a, t=54.40813664739575)
        config = ExperimentConfig(params=params, delta=0.05, n_paths=1000, seed=63)
        assert np.linspace(0.0, params.t, 101)[99] > params.t * (1.0 - 1.0 / 100)
        rows, errors = _study(monkeypatch, config, (100,), chunk_size=CHUNK_PATHS)
        row, reference_errors = _reference(config, (100,))[100]
        assert rows == [row]
        assert np.array_equal(errors[100], reference_errors)

    # (4.9, 8) once hedged 4 steps and reported them as n_steps 4
    @pytest.mark.parametrize("step_counts", [(), (64, 0), (-8,), (64, 48), (4.9, 8)])
    def test_rejects_bad_step_counts(self, set_a, step_counts):
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=1000, seed=1)
        with pytest.raises(ValueError, match="step_counts"):
            hedging_fidelity_study(config, step_counts)

    def test_peak_memory_holds_no_grid(self, set_a):
        # a chunk keeps the fine grid's current prices and each grid's
        # step start and wealth, never a path or wealth grid: the 4,096 x
        # 512 grids of one chunk took 96.8 MiB, the streamed chunk 1.5 MiB
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=4096, seed=59)
        assert _traced_peak(lambda: hedging_fidelity_study(config)) <= 2 * 2**20


def _study(monkeypatch, config: ExperimentConfig, step_counts, chunk_size: int):
    """The study's rows in chunks of ``chunk_size`` paths, with each step
    count's per-path terminal errors in path order."""
    results = []

    def recording(*args):
        results.extend(_MAP_CHUNKS(*args))
        return results

    monkeypatch.setattr(experiments, "CHUNK_PATHS", chunk_size)
    monkeypatch.setattr(experiments, "_map_chunks", recording)
    rows = hedging_fidelity_study(config, step_counts)
    return rows, {m: np.concatenate([r[m][0] for r in results]) for m in set(step_counts)}


def _reference(config: ExperimentConfig, step_counts) -> dict[int, tuple[dict, np.ndarray]]:
    """Each step count's study row and per-path terminal errors from one
    ``simulate_paths`` over all paths at the largest step count ``M``:
    step count ``m`` reads its every ``M / m``-th column and runs
    ``wealth_tracks`` along them, rebalancing at every step start."""
    params = config.params
    finest = max(step_counts)
    batch = simulate_paths(params, Measure.PHYSICAL, finest, config.n_paths, config.seed)
    reference = {}
    for n_steps in set(step_counts):
        every = finest // n_steps
        grid = PathBatch(batch.times[::every], batch.index_values[:, ::every],
                         batch.stock_values[:, ::every])
        track = wealth_tracks(build_two_sided(params, config.delta), params, grid)
        errors = np.abs(track.hedged[:, -1] - track.analytic[:, -1])
        reference[n_steps] = {
            "n_steps": n_steps,
            "median_abs_error": float(np.median(errors)),
            "rms_error": float(np.sqrt(np.mean(errors * errors))),
            "max_abs_error": float(errors.max()),
            "analytic_negative_count": int((track.analytic < 0.0).sum()),
            "hedged_negative_fraction": (int((track.hedged.min(axis=1) < 0.0).sum())
                                         / config.n_paths),
            "hedged_min_wealth": float(track.hedged.min()),
        }, errors
    return reference


_MAP_CHUNKS = experiments._map_chunks


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeterminism:
    def test_reports_identical_across_worker_counts(self, set_a):
        reports = []
        for workers in (1, 4, 8):
            config = ExperimentConfig(
                params=exact_capm_params(set_a), delta=0.05,
                n_paths=200_000, seed=56, n_workers=workers)
            reports.append(report_to_dict(config, verify(config, "two_sided")))
        assert reports[0] == reports[1] == reports[2]

    def test_repeat_run_identical(self, set_a):
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=10**4, seed=57)
        a = report_to_dict(config, verify(config, "two_sided"))
        b = report_to_dict(config, verify(config, "two_sided"))
        assert a == b


class TestChunkTasks:
    def test_every_chunk_task_is_a_module_function_that_pickles(self, set_a, monkeypatch):
        # each task and its arguments could be sent to a worker process
        calls = []

        def recording(n_paths, n_workers, task, *args):
            calls.append((task, args))
            return _MAP_CHUNKS(n_paths, n_workers, task, *args)

        monkeypatch.setattr(experiments, "_map_chunks", recording)
        # mu_bis is violated, so no proposition is gated out of sampling
        params = mu_bis_boundary_params(set_a, 0.05, 0.05, 2.0)
        config = ExperimentConfig(params=params, delta=0.05, n_paths=1000, seed=3)
        for proposition in experiments.PROPOSITIONS:
            verify(config, proposition)
        capm_convergence_study(params, 0.05, 0.05, (2.5, 10.0), n_paths=1000)
        hedging_fidelity_study(config, step_counts=(4, 8))
        assert [(task.__name__, args[-1]) for task, args in calls[:3]] == [
            ("_verify_chunk", proposition) for proposition in experiments.PROPOSITIONS]
        assert [task.__name__ for task, _ in calls[3:]] == [
            "_log_ratio_sums", "_log_ratio_sums", "_hedge_chunk"]
        for task, args in calls:
            assert getattr(experiments, task.__name__) is task
            loaded_task, _ = pickle.loads(pickle.dumps((task, args)))
            assert loaded_task is task

    def test_each_chunk_takes_its_log_ratios_once(self, set_a, monkeypatch):
        # a proposition's payoffs and events read one mapping of terminal
        # log ratios per chunk, holding only the underlying they state; the
        # convergence study's sums and the hedging study's payoffs, which
        # every step count shares, read one too
        calls = []

        def recording(params, terminal, *underlyings):
            calls.append(underlyings)
            return terminal_log_ratios(params, terminal, *underlyings)

        monkeypatch.setattr(experiments, "terminal_log_ratios", recording)
        config = ExperimentConfig(params=set_a, delta=0.05, n_paths=1000, seed=3)
        for proposition, underlying in (("two_sided", Underlying.STOCK),
                                        ("mu_bis", Underlying.STOCK),
                                        ("index", Underlying.BOND)):
            calls.clear()
            experiments._verify_chunk(config, proposition, 0, 1000)
            assert calls == [(underlying,)], proposition
        calls.clear()
        experiments._log_ratio_sums(set_a, 3, 0, 1000)
        assert calls == [(Underlying.STOCK,)]
        calls.clear()
        hedging_fidelity_study(config, step_counts=(4, 8))
        assert calls == [(Underlying.STOCK,)]

    @pytest.mark.parametrize("n_paths, n_workers, threads", [
        (CHUNK_PATHS, 8, None),
        (3 * CHUNK_PATHS, 1, None),
        (3 * CHUNK_PATHS, 10**6, 3),
        (3 * CHUNK_PATHS - 1, 2, 2),
    ])
    def test_pool_has_no_more_threads_than_chunks(self, monkeypatch, n_paths, n_workers,
                                                  threads):
        # a fake executor records its size and runs the chunks in this
        # thread; a run of one chunk, or of one worker, builds none
        built = []

        class FakeExecutor:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakeExecutor)
        chunks = experiments._map_chunks(n_paths, n_workers, _bounds, "tag")
        assert built == ([] if threads is None else [threads])
        assert chunks == [("tag", first, min(CHUNK_PATHS, n_paths - first))
                          for first in range(0, n_paths, CHUNK_PATHS)]


def _bounds(tag: str, first: int, count: int) -> tuple[str, int, int]:
    return tag, first, count
