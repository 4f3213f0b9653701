"""Acceptance suite: every guarantee at its stated size and tolerance.

Each criterion records one pass/fail line (replayed in the terminal
summary) and asserts both its numerical tolerance and its runtime
budget.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from eihlab.analytic import DigitalSpec, Direction, digital_price, thresholds
from eihlab.cli import main as cli_main
from eihlab.experiments import (
    ExperimentConfig,
    capm_convergence_study,
    exact_capm_params,
    hedging_fidelity_study,
    lemma_crosscheck,
    mu_bis_boundary_params,
    report_to_dict,
    verify,
)
from eihlab.market import MarketParams, Measure, reduce_dimension, simulate_terminal
from eihlab.strategies import bound_check

from conftest import ACCEPTANCE_LINES, SET_A, random_market


def record(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def set_a() -> MarketParams:
    return MarketParams(**SET_A)


def test_criterion_1_lemma_fidelity():
    start = time.perf_counter()
    rows = lemma_crosscheck(100, seed=4242, n_nodes=64, n_mc=10**4)
    worst = max(row["abs_gap"] for row in rows)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    record(1, ok, f"closed vs quadrature on 100 triples: max gap {worst:.2e} "
                  f"(tol 1e-8), {elapsed:.1f}s (limit 10s)")


def test_criterion_2_price_construction(set_a):
    start = time.perf_counter()
    delta = 0.05
    red = reduce_dimension(set_a)
    a, b = thresholds(red, set_a.t, delta)
    spec_low = DigitalSpec.at_level(Direction.AT_MOST, a)
    spec_high = DigitalSpec.at_level(Direction.AT_LEAST, b)
    price_low = digital_price(red, spec_low, set_a.t)
    price_high = digital_price(red, spec_high, set_a.t)
    closed_ok = (abs(price_low - delta / 2.0) <= 1e-12
                 and abs(price_high - delta / 2.0) <= 1e-12)

    n = 10**6
    out = simulate_terminal(set_a, Measure.RISK_NEUTRAL, n, 777)
    disc = math.exp(-set_a.r * set_a.t)
    log_ratio = np.log(out.stock / out.index)
    mc_ok = True
    details = []
    for spec, price in ((spec_low, price_low), (spec_high, price_high)):
        payoff = disc * out.index * spec.payoff_indicator(log_ratio)
        se = payoff.std(ddof=1) / math.sqrt(n)
        gap = abs(payoff.mean() - price)
        mc_ok &= gap <= 3.0 * se
        details.append(f"{gap / se:.2f} se")
    elapsed = time.perf_counter() - start
    ok = closed_ok and mc_ok and elapsed < 30.0
    record(2, ok, f"components price delta/2 within 1e-12: {closed_ok}; "
                  f"risk-neutral MC gaps {', '.join(details)} (limit 3 se); "
                  f"{elapsed:.1f}s (limit 30s)")


def test_criterion_3_two_sided_dichotomy(set_a):
    start = time.perf_counter()
    params = exact_capm_params(set_a)
    violations = 0
    coverage = []
    for delta in (0.01, 0.05, 0.1):
        config = ExperimentConfig(params=params, delta=delta, n_paths=10**6, seed=4243)
        report = verify(config, "two_sided")
        violations += report.dichotomy_violations
        low, high = report.wilson_ci_95
        coverage.append(low <= 1.0 - delta <= high)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and all(coverage) and elapsed < 60.0
    record(3, ok, f"dichotomy violations {violations} (must be 0); CI covers 1-delta "
                  f"for all three deltas: {all(coverage)}; {elapsed:.1f}s (limit 60s)")


def test_criterion_4_one_sided_guarantee(set_a):
    start = time.perf_counter()
    delta = eps = 0.05

    boundary = mu_bis_boundary_params(set_a, delta, eps, margin=1.0)
    config = ExperimentConfig(params=boundary, delta=delta, eps=eps,
                              n_paths=10**6, seed=4244)
    report_boundary = verify(config, "mu_bis")
    low, high = report_boundary.wilson_ci_95
    boundary_ok = (low <= 1.0 - eps <= high
                   and not report_boundary.bound.holds
                   and report_boundary.dichotomy_violations == 0)

    doubled = mu_bis_boundary_params(set_a, delta, eps, margin=2.0)
    config = ExperimentConfig(params=doubled, delta=delta, eps=eps,
                              n_paths=10**6, seed=4245)
    report_doubled = verify(config, "mu_bis")
    doubled_ok = report_doubled.wilson_ci_95[0] > 1.0 - eps

    elapsed = time.perf_counter() - start
    ok = boundary_ok and doubled_ok and elapsed < 60.0
    record(4, ok, f"boundary CI [{low:.5f}, {high:.5f}] covers 0.95: {boundary_ok}; "
                  f"2x margin lower CI {report_doubled.wilson_ci_95[0]:.6f} > 0.95: "
                  f"{doubled_ok}; {elapsed:.1f}s (limit 60s)")


def test_criterion_5_equity_premium(set_a):
    start = time.perf_counter()
    delta = eps = 0.05
    norm_i_sq = float(set_a.sigma_i @ set_a.sigma_i)

    pinned = replace(set_a, mu_i=set_a.r + norm_i_sq)
    config = ExperimentConfig(params=pinned, delta=delta, eps=eps,
                              n_paths=10**6, seed=4246)
    report_pinned = verify(config, "index")
    low = report_pinned.extras["recover_ci_low"]
    high = report_pinned.extras["recover_ci_high"]
    recover_ok = low <= 1.0 - delta <= high and report_pinned.dichotomy_violations == 0

    # zero premium, horizon far enough out that the premium bound fails
    from eihlab.normal import upper_quantile
    z_sum = float(upper_quantile(delta) + upper_quantile(eps))
    horizon = (2.0 * z_sum / math.sqrt(norm_i_sq)) ** 2
    flat = replace(set_a, mu_i=set_a.r, t=horizon)
    assert not bound_check(flat, delta, eps, "index").holds
    config = ExperimentConfig(params=flat, delta=delta, eps=eps,
                              n_paths=10**6, seed=4247)
    report_flat = verify(config, "index")
    beat_ok = report_flat.wilson_ci_95[0] >= 1.0 - eps

    elapsed = time.perf_counter() - start
    ok = recover_ok and beat_ok and elapsed < 60.0
    record(5, ok, f"recover CI [{low:.5f}, {high:.5f}] covers 0.95: {recover_ok}; "
                  f"flat-premium beat lower CI {report_flat.wilson_ci_95[0]:.6f} "
                  f">= 0.95: {beat_ok}; {elapsed:.1f}s (limit 60s)")


def test_criterion_6_bound_algebra():
    start = time.perf_counter()
    gen = np.random.default_rng(4248)
    capm1_breaks = 0
    final_breaks = 0
    capm1_checked = 0
    final_checked = 0
    for _ in range(10**4):
        params = random_market(gen)
        delta = float(gen.uniform(0.01, 0.5))
        eps = float(gen.uniform(0.01, 0.5))
        mu_bis = bound_check(params, delta, eps, "mu_bis")
        index = bound_check(params, delta, eps, "index")
        capm1 = bound_check(params, delta, eps, "capm1")
        final = bound_check(params, delta, eps, "capm_final")
        if mu_bis.holds and index.holds:
            capm1_checked += 1
            capm1_breaks += not capm1.holds
        if index.holds and capm1.holds:
            final_checked += 1
            final_breaks += not final.holds
    elapsed = time.perf_counter() - start
    ok = (capm1_breaks == 0 and final_breaks == 0
          and capm1_checked > 100 and final_checked > 100 and elapsed < 5.0)
    record(6, ok, f"(mu_bis & index => capm1): {capm1_breaks} breaks in "
                  f"{capm1_checked}; (index & capm1 => capm_final): {final_breaks} "
                  f"breaks in {final_checked}; {elapsed:.1f}s (limit 5s)")


def test_criterion_7_convergence_and_tpd(set_a):
    start = time.perf_counter()
    study = capm_convergence_study(set_a, 0.05, 0.05, [2.5, 10.0, 40.0, 160.0],
                                   n_paths=10**6, seed=4249)
    slope_ok = all(abs(s + 0.5) <= 1e-9 for s in study.slopes.values())
    row = next(r for r in study.rows if r["horizon"] == 10.0)
    tpd_gap = abs(row["tpd_mc_mean"] - row["tpd_target"])
    tpd_ok = tpd_gap <= 4.0 * row["tpd_se"]
    elapsed = time.perf_counter() - start
    ok = slope_ok and tpd_ok and elapsed < 60.0
    record(7, ok, f"log-log slopes -0.5 within 1e-9: {slope_ok}; TPD gap at T=10 "
                  f"{tpd_gap / row['tpd_se']:.2f} se (limit 4); "
                  f"{elapsed:.1f}s (limit 60s)")


def test_criterion_8_hedging_fidelity(set_a):
    start = time.perf_counter()
    config = ExperimentConfig(params=set_a, delta=0.05, n_paths=10**4, seed=4250)
    rows = hedging_fidelity_study(config, step_counts=(128, 256, 512))
    medians = [row["median_abs_error"] for row in rows]
    monotone = medians[0] > medians[1] > medians[2]
    nonnegative = all(row["analytic_negative_count"] == 0 for row in rows)
    elapsed = time.perf_counter() - start
    ok = monotone and nonnegative and elapsed < 120.0
    record(8, ok, f"median errors {[f'{m:.4f}' for m in medians]} decreasing: "
                  f"{monotone}; analytic wealth nonnegative: {nonnegative}; "
                  f"{elapsed:.1f}s (limit 120s)")


def test_criterion_9_determinism(set_a, tmp_path, capsys):
    start = time.perf_counter()
    json_payloads = []
    for workers in (1, 4, 8):
        config = ExperimentConfig(params=exact_capm_params(set_a), delta=0.05,
                                  n_paths=10**5, seed=4251, n_workers=workers)
        payload = json.dumps(report_to_dict(config, verify(config, "two_sided")),
                             sort_keys=True)
        json_payloads.append(payload.encode())
    json_ok = json_payloads[0] == json_payloads[1] == json_payloads[2]

    cfg = tmp_path / "set_a.cfg"
    cfg.write_text(
        "market.mu_i = 0.06\nmarket.mu_s = 0.05\n"
        "market.sigma_i = 0.15, 0.05\nmarket.sigma_s = 0.25, -0.10\n"
        "market.r = 0.02\nmarket.t = 10.0\nrun.n_paths = 20000\n")
    csv_bytes = []
    for workers in (1, 4, 8):
        out = tmp_path / f"conv_{workers}.csv"
        code = cli_main(["table", "--config", str(cfg), "--study", "convergence",
                         "--t-grid", "10,40", "--workers", str(workers),
                         "--seed", "4252", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        csv_bytes.append(out.read_bytes())
    csv_ok = csv_bytes[0] == csv_bytes[1] == csv_bytes[2]

    elapsed = time.perf_counter() - start
    ok = json_ok and csv_ok
    record(9, ok, f"JSON byte-identical across 1/4/8 workers: {json_ok}; "
                  f"CSV byte-identical: {csv_ok}; {elapsed:.1f}s")
