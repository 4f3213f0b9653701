"""Command-line contract: parsing, precedence, exit codes, output stability."""

import contextlib
import functools
import io
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eihlab import cli, experiments
from eihlab.analytic import DigitalSpec, Direction, digital_price, log_thresholds
from eihlab.cli import main
from eihlab.market import MarketParams, Measure, simulate_paths, simulate_terminal
from eihlab.normal import upper_quantile

# reference market with the stock drift at its index-implied level
# (0.06 - 0.025 + 0.0325), so the band event probability is exactly 0.95
SET_A_CONFIG = """\
market.mu_i    = 0.06
market.mu_s    = 0.0675
market.sigma_i = 0.15, 0.05
market.sigma_s = 0.25, -0.10
market.r       = 0.02
market.t       = 10.0
run.seed       = 42
run.n_paths    = 20000
run.delta      = 0.05
run.eps        = 0.05
"""
SET_A_PARAMS = MarketParams(0.06, 0.0675, (0.15, 0.05), (0.25, -0.10), 0.02, 10.0)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "set_a.cfg"
    path.write_text(SET_A_CONFIG)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_rejected(capsys, *argv) -> None:
    """Run ``argv``, which argparse must reject: exit 2, nothing on
    stdout and one ``error:`` line on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


class TestPrice:
    def test_reference_prices(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "price", "--config", config_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["price_at_most_a"] == pytest.approx(0.025, abs=1e-12)
        assert payload["price_at_least_b"] == pytest.approx(0.025, abs=1e-12)
        assert payload["total_price"] == pytest.approx(0.05, abs=1e-12)
        assert payload["threshold_a"] < payload["threshold_b"]

    def test_wide_mass_scales_linearly(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "price", "--config", config_path,
                               "--delta", "0.999")
        assert code == 0
        payload = json.loads(out)
        assert payload["price_at_most_a"] == pytest.approx(0.4995, abs=1e-12)
        assert payload["price_at_least_b"] == pytest.approx(0.4995, abs=1e-12)

    def test_missing_sigma_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("market.sigma_i = 0.15, 0.05\nmarket.t = 10\n")
        code, out, err = run_cli(capsys, "price", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "sigma_s" in err

    def test_no_config_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "price")
        assert code == 2
        assert "sigma" in err


class TestThresholds:
    def test_band_edges(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "thresholds", "--config", config_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["log_b"] == pytest.approx(0.9548513846259783, abs=1e-12)
        assert payload["log_a"] == pytest.approx(-1.2798513846259783, abs=1e-12)

    @pytest.mark.parametrize("delta", ["0.09", "0.15"])
    def test_logs_and_prices_use_the_stored_edges(self, capsys, config_path, delta):
        # at these deltas ln(exp(ln a)) or ln(exp(ln b)) is not ln a or ln b
        delta_norm = SET_A_PARAMS.delta_norm
        log_a, log_b = log_thresholds(delta_norm, SET_A_PARAMS.t, float(delta))
        assert (math.log(math.exp(log_a)), math.log(math.exp(log_b))) != (log_a, log_b)
        code, out, _ = run_cli(capsys, "thresholds", "--config", config_path, "--delta", delta)
        assert code == 0
        payload = json.loads(out)
        assert (payload["log_a"], payload["log_b"]) == (log_a, log_b)
        code, out, _ = run_cli(capsys, "price", "--config", config_path, "--delta", delta)
        assert code == 0
        payload = json.loads(out)
        for key, direction, log_edge in (("price_at_most_a", Direction.AT_MOST, log_a),
                                          ("price_at_least_b", Direction.AT_LEAST, log_b)):
            spec = DigitalSpec(direction, log_edge)
            assert payload[key] == digital_price(delta_norm, spec, SET_A_PARAMS.t)

    def test_bad_delta_is_usage_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, "thresholds", "--config", config_path,
                               "--delta", "1.5")
        assert code == 2
        assert "delta" in err


class TestSimulate:
    def test_terminal_csv_shape(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "terminal.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", "100", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "path,index_terminal,stock_terminal"
        assert len(lines) == 101
        assert out == out_path.read_text()

    def test_single_path_csv(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--steps", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "time,index,stock"
        assert len(lines) == 18
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0 and float(first[2]) == 1.0

    def test_csv_round_trips_floats(self, capsys, config_path):
        from eihlab.market import MarketParams, Measure, simulate_terminal
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", "50", "--seed", "99")
        assert code == 0
        params = MarketParams(0.06, 0.0675, (0.15, 0.05), (0.25, -0.10), 0.02, 10.0)
        expected = simulate_terminal(params, Measure.PHYSICAL, 50, 99)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        got_index = np.array([float(r[1]) for r in rows])
        got_stock = np.array([float(r[2]) for r in rows])
        assert np.array_equal(got_index, expected.index)
        assert np.array_equal(got_stock, expected.stock)

    @pytest.mark.parametrize("measure", ["physical", "risk-neutral"])
    @pytest.mark.parametrize("seed", [0, 2, 4, 7, 12])
    def test_one_step_path_ends_at_the_terminal_row(self, capsys, config_path, measure, seed):
        # one draw, one lognormal rule: the path's last row is the
        # terminal sample's, digit for digit
        common = ("--config", config_path, "--measure", measure, "--seed", str(seed))
        _, path, _ = run_cli(capsys, "simulate", *common, "--steps", "1")
        _, terminal, _ = run_cli(capsys, "simulate", *common, "--paths", "1")
        assert path.splitlines()[-1].split(",")[1:] == terminal.splitlines()[-1].split(",")[1:]


class TestVerify:
    def test_two_sided_passes(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--config", config_path, "--prop", "two_sided",
            "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["verdict"] == "pass"
        assert payload["dichotomy_violations"] == 0
        assert payload["theoretical_target"] == pytest.approx(0.95, abs=1e-12)
        assert json.loads(out_path.read_text()) == payload

    def test_ci_missing_target_is_exit_1(self, capsys, config_path):
        # at 20000 paths the 95% interval misses the exact event
        # probability for about 5% of seeds: the CLI exits 1 on exactly
        # those, whatever the random stream
        misses = 0
        for seed in range(40):
            config = experiments.ExperimentConfig(
                params=SET_A_PARAMS, delta=0.05, eps=0.05, n_paths=20000, seed=seed)
            report = experiments.verify(config, "two_sided")
            low, high = report.wilson_ci_95
            missed = not low <= report.theoretical_target <= high
            code, out, _ = run_cli(capsys, "verify", "--config", config_path,
                                   "--prop", "two_sided", "--seed", str(seed))
            assert (code, json.loads(out)["verdict"]) == ((1, "fail") if missed else (0, "pass"))
            misses += missed
        assert misses >= 1

    def test_bound_holding_is_exit_3(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "verify", "--config", config_path,
                               "--prop", "mu_bis")
        assert code == 3
        payload = json.loads(out)
        assert payload["verdict"] == "inconclusive"
        assert payload["bound"]["holds"] is True

    def test_index_premium_bound_holds_under_reference_market(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "verify", "--config", config_path,
                               "--prop", "index")
        assert code == 3
        payload = json.loads(out)
        assert payload["bound"]["proposition"] == "index"
        assert "recover_probability" in payload["extras"]

    def test_unknown_proposition_is_exit_2(self, capsys, config_path):
        code, _, err = run_cli(capsys, "verify", "--config", config_path,
                               "--prop", "nonsense")
        assert code == 2
        assert "unknown proposition" in err

    def test_byte_identical_across_workers_and_reruns(self, capsys, config_path, tmp_path):
        outputs = []
        for tag, workers in (("a", "1"), ("b", "4"), ("c", "8"), ("d", "1")):
            out_path = tmp_path / f"report_{tag}.json"
            code, _, _ = run_cli(
                capsys, "verify", "--config", config_path, "--prop", "two_sided",
                "--workers", workers, "--out", str(out_path))
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


class TestSeedPrecedence:
    def test_env_overrides_config(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("EIHLAB_SEED", "77")
        _, out_env, _ = run_cli(capsys, "simulate", "--config", config_path,
                                "--paths", "5")
        monkeypatch.delenv("EIHLAB_SEED")
        _, out_cfg, _ = run_cli(capsys, "simulate", "--config", config_path,
                                "--paths", "5")
        _, out_77, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", "5", "--seed", "77")
        assert out_env == out_77
        assert out_env != out_cfg

    def test_flag_overrides_env(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("EIHLAB_SEED", "77")
        _, out_flag, _ = run_cli(capsys, "simulate", "--config", config_path,
                                 "--paths", "5", "--seed", "42")
        monkeypatch.delenv("EIHLAB_SEED")
        _, out_42, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", "5", "--seed", "42")
        assert out_flag == out_42

    def test_bad_env_seed_is_usage_error(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("EIHLAB_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", "5")
        assert code == 2
        assert "EIHLAB_SEED" in err

    @pytest.mark.parametrize("env, message", [
        ("not-a-number", "EIHLAB_SEED must be an integer, got 'not-a-number'"),
        ("2.5", "EIHLAB_SEED must be an integer, got '2.5'"),
    ])
    def test_bad_env_seed_message(self, capsys, config_path, monkeypatch, env, message):
        monkeypatch.setenv("EIHLAB_SEED", env)
        code, out, err = run_cli(capsys, "simulate", "--config", config_path, "--paths", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_env_seed_follows_the_config_integer_rule(self, capsys, config_path,
                                                       monkeypatch):
        # run.seed = 1e3 is seed 1000, and so is EIHLAB_SEED=1e3
        monkeypatch.setenv("EIHLAB_SEED", "1e3")
        code, out_env, _ = run_cli(capsys, "simulate", "--config", config_path, "--paths", "5")
        monkeypatch.delenv("EIHLAB_SEED")
        _, out_1000, _ = run_cli(capsys, "simulate", "--config", config_path,
                                 "--paths", "5", "--seed", "1000")
        assert code == 0
        assert out_env == out_1000


    def test_largest_seed_is_accepted(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", "5", "--seed", str(2**64 - 1))
        assert code == 0
        assert len(out.splitlines()) == 6


class TestUsageErrors:
    @pytest.mark.parametrize("argv, env_seed, config_seed", [
        (("simulate", "--paths", "0"), None, None),
        (("simulate", "--steps", "0"), None, None),
        (("table", "--study", "convergence", "--t-grid", "1,abc"), None, None),
        (("table", "--study", "lemma", "--paths", "0"), None, None),
        (("table", "--study", "lemma", "--paths", "1"), None, None),
        (("simulate", "--paths", "5", "--seed", "-1"), None, None),
        (("verify", "--prop", "two_sided", "--seed", str(2**64)), None, None),
        (("simulate", "--paths", "5"), "-1", None),
        (("simulate", "--paths", "5"), str(2**64), None),
        (("simulate", "--paths", "5"), None, "-1"),
        (("hedge", "--paths", "1000"), None, "1e20"),
        (("table", "--study", "convergence", "--t-grid", "10", "--paths", "0"), None, None),
        # one path has no standard error
        (("table", "--study", "convergence", "--t-grid", "2.5,10", "--paths", "1"), None, None),
        (("table", "--study", "convergence", "--t-grid", "10", "--workers", "0"), None, None),
        # one path more than the lanes of the random stream (2^64 itself is
        # valid, and would run for years)
        (("verify", "--prop", "two_sided", "--paths", str(2**64 + 1)), None, None),
        (("verify", "--prop", "mu_bis", "--paths", str(2**64 + 1)), None, None),
        (("hedge", "--paths", str(2**64 + 1)), None, None),
        (("table", "--study", "convergence", "--t-grid", "10", "--paths", str(2**64 + 1)),
         None, None),
        (("simulate", "--paths", str(2**64 + 1)), None, None),
    ], ids=["paths-0", "steps-0", "t-grid-not-a-number", "lemma-paths-0", "lemma-paths-1",
            "flag-seed-negative", "flag-seed-2^64", "env-seed-negative", "env-seed-2^64",
            "config-seed-negative", "config-seed-above-2^64", "convergence-paths-0",
            "convergence-paths-1", "convergence-workers-0", "verify-paths-above-2^64",
            "verify-gated-paths-above-2^64",
            "hedge-paths-above-2^64", "convergence-paths-above-2^64",
            "simulate-paths-above-2^64"])
    def test_bad_input_is_one_error_line(self, capsys, tmp_path, monkeypatch,
                                         argv, env_seed, config_seed):
        path = tmp_path / "c.cfg"
        text = SET_A_CONFIG
        if config_seed is not None:
            text = text.replace("run.seed       = 42", f"run.seed = {config_seed}")
        path.write_text(text)
        monkeypatch.delenv("EIHLAB_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("EIHLAB_SEED", env_seed)
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("setting, argv, key", [
        ("run.t_grid = 2.5, nan", ("table", "--study", "convergence"), "run.t_grid"),
        ("run.t_grid = 2.5, 1O", ("table", "--study", "convergence"), "run.t_grid"),
        ("", ("table", "--study", "convergence", "--t-grid", "10,"), "run.t_grid"),
        ("", ("table", "--study", "lemma", "--paths", "1"), "run.n_paths"),
        ("run.trials = 0", ("table", "--study", "lemma"), "run.trials"),
    ], ids=["t-grid-nan", "t-grid-malformed", "t-grid-flag-empty-entry", "lemma-paths-1",
            "lemma-trials-0"])
    def test_error_line_names_the_config_key(self, capsys, tmp_path, setting, argv, key):
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG + setting + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert key in err

    @pytest.mark.parametrize("command", ["price", "thresholds"])
    def test_underflowing_band_edge_is_one_error_line(self, capsys, tmp_path, command):
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG.replace("market.t       = 10.0", "market.t = 1e300"))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "underflows" in err

    @pytest.mark.parametrize("command", ["price", "thresholds"])
    def test_overflowing_band_edge_is_one_error_line(self, capsys, tmp_path, command):
        # a spread of z / sqrt(T) at z = z_{delta/2} puts ln b past 709.78,
        # where math.exp overflows (an OverflowError traceback, exit 1, before)
        z, horizon = upper_quantile(1e-320), 1000.0
        sigma_s = 0.15 + z / math.sqrt(horizon)
        assert log_thresholds(sigma_s - 0.15, horizon, 2e-320)[1] > 709.79
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG.replace("market.t       = 10.0", "market.t = 1000")
                        .replace("0.15, 0.05", "0.15, 0").replace("0.25, -0.10", f"{sigma_s!r}, 0"))
        code, out, err = run_cli(capsys, command, "--delta", "2e-320", "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv, module, name", [
        (("price",), cli, "digital_price"),
        (("thresholds",), cli, "thresholds"),
        (("simulate", "--paths", "5"), cli, "simulate_terminal"),
        (("simulate", "--steps", "5"), cli, "simulate_paths"),
        (("verify", "--prop", "two_sided"), experiments, "verify"),
        (("hedge", "--paths", "1000"), experiments, "hedging_fidelity_study"),
        (("table", "--study", "convergence", "--t-grid", "10"), experiments,
         "capm_convergence_study"),
        (("table", "--study", "lemma"), experiments, "lemma_crosscheck"),
    ], ids=["price", "thresholds", "simulate-paths", "simulate-steps", "verify", "hedge",
            "table-convergence", "table-lemma"])
    def test_library_value_error_is_one_error_line(self, capsys, monkeypatch, config_path,
                                                   argv, module, name):
        # every command maps a ValueError from the library it calls to exit 2
        def rejects(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(module, name, rejects)
        assert run_cli(capsys, *argv, "--config", config_path) == (2, "", "error: injected\n")

    @pytest.mark.parametrize("delta_norm", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("command", ["price", "thresholds"])
    def test_spread_norm_not_finite_and_positive_is_one_error_line(
            self, capsys, monkeypatch, config_path, command, delta_norm):
        # no market the constructor accepts has such a spread norm; one set
        # on a built market reaches the pricing functions' own check
        build = cli.market_from_config

        def market(values):
            params = build(values)
            vars(params)["delta_norm"] = delta_norm
            return params

        monkeypatch.setattr(cli, "market_from_config", market)
        code, out, err = run_cli(capsys, command, "--config", config_path)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: delta_norm must be finite")


class TestUnderflowingBandEdge:
    """A market whose band edge ``a`` underflows (``ln a`` near -990)
    still verifies and hedges: the claims are kept in log space."""

    CONFIG = (SET_A_CONFIG.replace("0.15, 0.05", "3.0, 0.0")
              .replace("0.25, -0.10", "-3.0, 0.5")
              .replace("market.t       = 10.0", "market.t = 50"))

    @pytest.mark.parametrize("argv", [
        ("verify", "--prop", "two_sided", "--paths", "1000"),
        ("verify", "--prop", "mu_bis", "--paths", "1000"),
        ("hedge", "--paths", "1000"),
    ])
    def test_runs_to_a_verdict(self, capsys, tmp_path, argv):
        path = tmp_path / "c.cfg"
        path.write_text(self.CONFIG)
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code in (0, 1, 3)
        assert "Traceback" not in err and "error:" not in err
        if argv[-3] == "two_sided":
            # no path escapes a band of mass 1 - 3.4e-82
            report = json.loads(out)
            assert report["empirical_probability"] == 0.0
            assert report["wilson_ci_95"][0] == 0.0
            assert (report["verdict"], code) == ("pass", 0)


class TestDegenerateVolatilityPairs:
    """A pair whose norms vanish, overflow or underflow is bad input on
    every command that reads the market: exit 2, one ``error:`` line, no
    traceback and no warning, never NaN rows or a band with a = b = 1."""

    @pytest.mark.parametrize("sigma_i, sigma_s", [
        ("0.2, 0", "0.2, 1e-300"),
        ("1e200, 0", "0, 1e200"),
        ("1e-200, 0", "0.2, 0.1"),
        ("1e154, 0", "-1e154, 0"),
        ("1e154, 0", "0, 1.3e154"),
    ], ids=["zero-spread", "overflow", "underflow", "spread-overflow-opposite",
            "spread-overflow-orthogonal"])
    @pytest.mark.parametrize("argv", [
        ("price",), ("thresholds",), ("verify", "--prop", "two_sided"),
        ("verify", "--prop", "mu_bis"), ("verify", "--prop", "index"),
        ("hedge", "--paths", "1000"), ("simulate", "--paths", "5"),
        ("simulate", "--steps", "4"),
    ], ids=["price", "thresholds", "verify-two_sided", "verify-mu_bis", "verify-index",
            "hedge", "simulate-paths", "simulate-steps"])
    def test_is_one_error_line(self, capsys, tmp_path, sigma_i, sigma_s, argv):
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG.replace("0.15, 0.05", sigma_i)
                        .replace("0.25, -0.10", sigma_s))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "must be finite and positive" in err
        assert [str(w.message) for w in caught] == []


class TestPricesOutOfFloatRange:
    """A market whose index underflows (its stock/index ratio overflows
    first) or overflows within the horizon, or whose rate overflows the
    hedged wealth, cannot be sampled or hedged: exit 2, one ``error:``
    line, no traceback and no warning, never NaN or inf rows."""

    @pytest.mark.parametrize("mu_i", ["-80", "200"])
    def test_hedge_is_one_error_line(self, capsys, tmp_path, mu_i):
        err = self._one_error_line(capsys, tmp_path, f"market.mu_i = {mu_i}",
                                   "hedge", "--paths", "1000")
        assert "must be finite and strictly positive" in err

    @pytest.mark.parametrize("mu_s", ["-90", "80"])
    def test_hedge_on_a_stock_out_of_range_is_one_error_line(self, capsys, tmp_path, mu_s):
        # the stock underflows through subnormal ratios, whose units are
        # NaN, or overflows while the wealth steps on before the next
        # valuation rejects it; neither may print a warning
        err = self._one_error_line(capsys, tmp_path, f"market.mu_s = {mu_s}",
                                   "hedge", "--paths", "1000")
        assert "must be finite and strictly positive" in err

    @pytest.mark.parametrize("setting, args", [
        *((f"market.mu_i = {mu_i}", args) for mu_i in ("-80", "200") for args in (
            ("verify", "--prop", "two_sided", "--paths", "1000"),
            ("verify", "--prop", "mu_bis", "--paths", "1000"),
            ("verify", "--prop", "index", "--paths", "1000"),
            ("table", "--study", "convergence", "--t-grid", "10", "--paths", "1000"),
            ("simulate", "--paths", "3"),
            ("simulate", "--steps", "4"),
        )),
        ("market.r = 70", ("hedge", "--paths", "1000")),
        ("market.r = 100", ("hedge", "--paths", "1000")),
        # a subnormal index, which the sampler accepts, overflows S/I
        *((f"market.mu_i = {mu_i}", ("verify", "--prop", prop, "--paths", "1000"))
          for mu_i in ("-72", "-71.5") for prop in ("two_sided", "mu_bis")),
    ], ids=lambda value: value.replace(" ", "") if isinstance(value, str) else " ".join(value))
    def test_run_is_one_error_line(self, capsys, tmp_path, setting, args):
        err = self._one_error_line(capsys, tmp_path, setting, *args)
        assert "the market leaves the float range" in err

    @pytest.mark.parametrize("mu_i", ["-72", "-71.5"])
    def test_index_premium_reads_a_subnormal_index(self, capsys, tmp_path, mu_i):
        # the bond/index log ratio is r T - ln I, finite on a subnormal index
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG + f"market.mu_i = {mu_i}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "verify", "--prop", "index", "--paths", "1000",
                                     "--config", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"
        assert err.startswith("runtime: ") and len(err.splitlines()) == 1
        assert [str(w.message) for w in caught] == []

    @staticmethod
    def _one_error_line(capsys, tmp_path, setting: str, *argv) -> str:
        path = tmp_path / "c.cfg"
        # a later line of the config overrides an earlier one
        path.write_text(SET_A_CONFIG + setting + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert [str(w.message) for w in caught] == []
        return err


def test_verify_help_names_every_proposition(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--prop NAME one of " + ", ".join(experiments.PROPOSITIONS) in text


# the run flags each command accepts besides --config and --out, and the
# arguments it cannot run without
ACCEPTED_FLAGS = {
    "price": {"--delta"},
    "thresholds": {"--delta"},
    "simulate": {"--seed", "--paths", "--steps", "--measure"},
    "hedge": {"--seed", "--paths", "--delta", "--workers"},
    "verify": {"--prop", "--seed", "--paths", "--delta", "--eps", "--workers"},
    "table": {"--study", "--t-grid", "--seed", "--paths", "--delta", "--eps", "--workers"},
}
REQUIRED_ARGS = {"verify": ("--prop", "two_sided"), "table": ("--study", "lemma")}
# a valid value of each run flag that some command does not read
FOREIGN_VALUES = {"--seed": "1", "--paths": "10", "--steps": "4", "--delta": "0.05",
                  "--eps": "0.05", "--measure": "physical", "--workers": "1"}


class TestFlagSets:
    @pytest.mark.parametrize("command", sorted(ACCEPTED_FLAGS))
    def test_each_command_has_exactly_its_flags(self, command):
        args = cli.build_parser().parse_args([command, *REQUIRED_ARGS.get(command, ())])
        flags = ACCEPTED_FLAGS[command] | {"--config", "--out"}
        assert set(vars(args)) - {"command", "func"} == {
            flag[2:].replace("-", "_") for flag in flags}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in sorted(ACCEPTED_FLAGS)
        for flag in sorted(FOREIGN_VALUES) if flag not in ACCEPTED_FLAGS[command]])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, capsys, config_path,
                                                               command, flag):
        run_rejected(capsys, command, *REQUIRED_ARGS.get(command, ()), "--config", config_path,
                     flag, FOREIGN_VALUES[flag])

    def test_simulate_takes_paths_or_steps_not_both(self, capsys, config_path):
        run_rejected(capsys, "simulate", "--config", config_path, "--steps", "4", "--paths", "5")


class TestTable:
    def test_convergence_rows(self, capsys, config_path):
        code, out, err = run_cli(
            capsys, "table", "--config", config_path, "--study", "convergence",
            "--t-grid", "10,40", "--paths", "2000")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("horizon,width_mu_bis")
        assert "slope" in err

    def test_empty_grid_is_usage_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, "table", "--config", config_path,
                               "--study", "convergence")
        assert code == 2
        assert "t_grid" in err

    def test_lemma_table_round_trip(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "table", "--config", config_path,
                               "--study", "lemma", "--paths", "1000")
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert "closed_form" in header and "quadrature" in header
        gap_col = header.index("abs_gap")
        for line in lines[1:]:
            assert float(line.split(",")[gap_col]) <= 1e-8

    def test_hedging_table(self, capsys, config_path):
        # `hedge` writes that table; its bytes are pinned in test_output_pins
        run_rejected(capsys, "table", "--config", config_path,
                     "--study", "hedging", "--paths", "1000")

    def test_lemma_reads_no_market(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("run.trials = 2\n")
        code, out, err = run_cli(capsys, "table", "--config", str(path),
                                 "--study", "lemma", "--paths", "100")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3

    def test_lemma_parses_no_convergence_keys(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG + "run.delta = abc\nrun.eps = abc\nrun.workers = abc\n")
        code, out, err = run_cli(capsys, "table", "--config", str(path),
                                 "--study", "lemma", "--paths", "100")
        assert (code, err) == (0, "")
        assert out.startswith("u1,u2,v1,v2,c,")


class TestHedge:
    def test_reads_no_eps(self, capsys, tmp_path, config_path):
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG + "run.eps = abc\n")
        argv = ("hedge", "--paths", "1000", "--seed", "3")
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, "--config", config_path)[1]

    @pytest.mark.parametrize("key, value", [
        ("run.delta", "abc"), ("run.delta", "1.5"), ("run.n_paths", "10"),
        ("run.workers", "0"), ("run.seed", "-1"),
    ])
    def test_validates_what_it_reads(self, capsys, tmp_path, monkeypatch, key, value):
        monkeypatch.delenv("EIHLAB_SEED", raising=False)
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG + f"{key} = {value}\n")
        code, out, err = run_cli(capsys, "hedge", "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestConfigParsing:
    def test_comments_and_blank_lines(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "\n# comment\nmarket.sigma_i = 0.2, 0.0 # trailing\n"
            "market.sigma_s = 0.1, 0.1\nmarket.t = 2.0\n")
        code, out, _ = run_cli(capsys, "thresholds", "--config", str(path))
        assert code == 0
        assert json.loads(out)["a"] > 0.0

    def test_malformed_line_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("market.sigma_i 0.2, 0.0\n")
        code, _, err = run_cli(capsys, "thresholds", "--config", str(path))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("setting", ["run.delt = 0.3", "market.sigma = 0.2, 0.1"])
    @pytest.mark.parametrize("argv", [("price",), ("verify", "--prop", "two_sided")],
                             ids=["price", "verify"])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, setting, argv):
        # a misspelt key would otherwise leave its value at the default
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG + setting + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, out) == (2, "")
        key = setting.split(" =")[0]
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err

    def test_unreadable_config_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "price", "--config", "/nonexistent.cfg")
        assert code == 2
        assert "cannot read" in err

    def test_undecodable_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(SET_A_CONFIG.encode() + b"# \xff\n")
        code, out, err = run_cli(capsys, "price", "--config", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read config {path}")

    def test_unwritable_output_is_usage_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, "price", "--config", config_path,
                               "--out", "/nonexistent-dir/out.json")
        assert code == 2
        assert "cannot write" in err

    def test_measure_flag_switches_drift(self, capsys, config_path):
        _, physical, _ = run_cli(capsys, "simulate", "--config", config_path,
                                 "--paths", "50", "--measure", "physical")
        _, neutral, _ = run_cli(capsys, "simulate", "--config", config_path,
                                "--paths", "50", "--measure", "risk-neutral")
        assert physical != neutral


def reference_csv(header: str, *columns) -> str:
    """One row per index, each value through ``str`` (ints) or
    ``format(x, ".17g")`` (floats), as the table writer formats them."""
    def text(x):
        return str(x) if isinstance(x, int) else format(float(x), ".17g")
    return header + "\n" + "".join(
        ",".join(text(x) for x in row) + "\n" for row in zip(*columns))


def assert_rows_are_reference(*columns) -> None:
    """``cli._csv_rows`` of numpy columns equals ``reference_csv`` of
    their Python values."""
    expected = reference_csv("h", *(np.asarray(c).tolist() for c in columns))
    assert cli._csv_rows(tuple(np.asarray(c) for c in columns)) == expected[2:]


def _with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


class TestCsvWriter:
    """The byte-matrix writer against ``format(x, ".17g")`` and ``str(i)``."""

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_floats(self, xs):
        assert_rows_are_reference(xs, [-x for x in xs])

    def test_bit_patterns_across_all_doubles(self):
        bits = np.random.default_rng(2024).integers(0, 2**64, 10**4, dtype=np.uint64)
        assert_rows_are_reference(bits.view(np.float64))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_exact_ties_round_half_to_even(self, k):
        # x = m / 2^(k+1) with m odd lies halfway between two 17-digit
        # decimals when x is in [10^(16-k), 10^(17-k))
        lo, hi = 10**(16 - k) * 2**(k + 1), 10**(17 - k) * 2**(k + 1)
        m = np.random.default_rng(k).integers(lo, hi, 2000) | 1
        x = m / 2.0**(k + 1)
        assert np.all(x * 2.0**(k + 1) == m)  # every tie is exact
        assert_rows_are_reference(x, -x)

    def test_powers_of_ten_and_the_fast_range_ends(self):
        assert_rows_are_reference(_with_neighbours([10.0**k for k in range(-5, 18)]))
        assert_rows_are_reference(np.concatenate([[0.0, -0.0], _with_neighbours([1e-4, 1e16])]))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_short_chunks_with_negative_ints(self, rows):
        ints = np.array([-1, 0, 9, -(2**63), 2**63 - 1, 10, -12345])[:rows]
        floats = np.array([0.1, -2.5e-320, 1e300, np.nan, -np.inf, 123.0, 1e-4])[:rows]
        assert_rows_are_reference(ints, floats, np.arange(rows))


class TestStreamedSimulate:
    @pytest.mark.parametrize("n_rows", [6, 7, 8, 22])
    @pytest.mark.parametrize("measure", [Measure.PHYSICAL, Measure.RISK_NEUTRAL])
    def test_chunks_equal_one_batch(self, capsys, monkeypatch, config_path, tmp_path,
                                    n_rows, measure):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["first_path"])
            return simulate_terminal(*args, **kwargs)

        monkeypatch.setattr(cli, "SIMULATE_CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "simulate_terminal", counted)
        out_path = tmp_path / "terminal.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", str(n_rows), "--seed", "7",
                               "--measure", measure.value.replace("_", "-"),
                               "--out", str(out_path))
        assert code == 0
        assert calls == list(range(0, n_rows, 7))
        batch = simulate_terminal(SET_A_PARAMS, measure, n_rows, 7)
        assert out == reference_csv("path,index_terminal,stock_terminal",
                                    range(n_rows), batch.index, batch.stock)
        assert out_path.read_bytes() == out.encode()

    def test_single_path_uses_the_same_format(self, capsys, monkeypatch, config_path,
                                              tmp_path):
        monkeypatch.setattr(cli, "SIMULATE_CHUNK_ROWS", 7)
        out_path = tmp_path / "path.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--steps", "16", "--seed", "7", "--out", str(out_path))
        assert code == 0
        batch = simulate_paths(SET_A_PARAMS, Measure.PHYSICAL, 16, 1, 7)
        assert out == reference_csv("time,index,stock", batch.times,
                                    batch.index_values[0], batch.stock_values[0])
        assert out_path.read_bytes() == out.encode()

    def test_subnormal_index_rows(self, capsys, monkeypatch, tmp_path):
        # the README's subnormal-index market: every index value is
        # formatted one at a time and every stock value by the byte matrix
        path = tmp_path / "c.cfg"
        path.write_text(SET_A_CONFIG + "market.mu_i = -72\n")
        monkeypatch.setattr(cli, "SIMULATE_CHUNK_ROWS", 7)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                               "--paths", "22", "--seed", "7")
        assert code == 0
        batch = simulate_terminal(replace(SET_A_PARAMS, mu_i=-72.0), Measure.PHYSICAL, 22, 7)
        index, stock = batch.index, batch.stock
        assert np.all((index > 0) & (index < np.finfo(float).smallest_normal))
        assert np.all((stock >= 1e-4) & (stock < 1e16))
        assert out == reference_csv("path,index_terminal,stock_terminal",
                                    range(22), index, stock)

    def test_unwritable_out_fails_before_stdout(self, capsys, config_path, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "--config", config_path,
                                 "--paths", "5", "--out", str(tmp_path / "no-dir" / "t.csv"))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "cannot write" in err


def _fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli_process(*argv, **popen) -> subprocess.Popen:
    """``eihlab`` with ``argv`` in a new interpreter that imports this package."""
    return subprocess.Popen([sys.executable, "-m", "eihlab.cli", *argv], env=_fresh_env(),
                            **popen)


class TestFailedWrites:
    @pytest.mark.parametrize("with_out", [False, True])
    def test_closed_stdout_is_one_error_line(self, config_path, tmp_path, with_out):
        # as in `eihlab simulate --paths 200000 | head -c 100`
        argv = ["simulate", "--config", config_path, "--paths", "200000"]
        if with_out:
            argv += ["--out", str(tmp_path / "o.csv")]
        proc = _cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.read(100).startswith(b"path,index_terminal,stock_terminal\n")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert (code, err) == (2, b"error: cannot write stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("argv", [("simulate", "--paths", "3"), ("price",)])
    def test_stdout_closed_at_start_is_one_error_line(self, config_path, argv):
        # as in `eihlab price >&-`: the interpreter starts with no sys.stdout
        proc = _cli_process(*argv, "--config", config_path, stderr=subprocess.PIPE,
                            preexec_fn=functools.partial(os.close, 1))
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (2, b"error: cannot write stdout: it is closed\n")

    @pytest.mark.parametrize("argv, config, expected", [
        (("verify", "--prop", "index", "--paths", "1000"), True, 3),  # the runtime: line
        (("table", "--study", "convergence", "--t-grid", "2.5,10", "--paths", "1000"), True, 0),
        (("verify", "--prop", "index"), False, 2),  # the error: line
    ], ids=["verify", "table", "missing-config"])
    @pytest.mark.parametrize("stderr", [
        functools.partial(os.close, 2),  # the interpreter starts with no sys.stderr
        # `2>&-` under a launcher script: the script's file lands on fd 2,
        # and a write to it fails with EBADF
        lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2),
    ], ids=["closed", "read-only"])
    def test_closed_stderr_keeps_the_exit_code(self, config_path, tmp_path, argv, config,
                                               expected, stderr):
        # as in `eihlab verify ... 2>&-`: the lines for stderr are dropped
        path = config_path if config else str(tmp_path / "no-such.cfg")
        proc = _cli_process(*argv, "--config", path, stdout=subprocess.PIPE,
                            preexec_fn=stderr)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == expected
        assert not any(word in out for word in (b"runtime", b"slope", b"error"))

    def test_no_stderr_leaves_stdout_to_the_report(self, capsys, monkeypatch, config_path):
        monkeypatch.setattr(sys, "stderr", None)
        code = main(["verify", "--prop", "index", "--paths", "1000", "--config", config_path])
        out = capsys.readouterr().out
        assert code == 3
        assert out.endswith("}\n") and json.loads(out)["verdict"] == "inconclusive"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_file_names_the_file(self, capsys, config_path):
        code, _, err = run_cli(capsys, "simulate", "--config", config_path,
                               "--paths", "1000", "--out", "/dev/full")
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot write /dev/full: [Errno 28]")


class TestAllocator:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
    def test_repeated_calls_fault_in_no_fresh_pages(self, config_path, tmp_path):
        # by default each call maps its chunks' arrays afresh: the fifth of
        # five calls took about 955 minor faults on simulate, 608 on verify
        script = textwrap.dedent("""
            import contextlib, json, resource, sys
            from eihlab.cli import main
            config, out = sys.argv[1:]
            faults = {}
            for argv in (["simulate", "--paths", "10000"],
                         ["verify", "--prop", "two_sided", "--paths", "100000"]):
                with open(out, "w") as sink, contextlib.redirect_stdout(sink):
                    for _ in range(5):
                        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                        main([*argv, "--config", config])
                faults[argv[0]] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            print(json.dumps(faults))
        """)
        proc = subprocess.run([sys.executable, "-c", script, config_path, str(tmp_path / "o")],
                              env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = json.loads(proc.stdout)
        assert faults.keys() == {"simulate", "verify"}
        assert max(faults.values()) < 64, faults

    @pytest.mark.parametrize("cdll", [mock.Mock(side_effect=OSError("no C library")),
                                      mock.Mock(return_value=object())],  # no mallopt
                             ids=["oserror", "no-mallopt"])
    def test_runs_without_mallopt(self, capsys, monkeypatch, config_path, cdll):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cli._keep_freed_memory.cache_clear()
        try:
            code, out, _ = run_cli(capsys, "price", "--config", config_path)
        finally:
            cli._keep_freed_memory.cache_clear()
        assert code == 0 and json.loads(out)["total_price"] > 0
        assert cdll.called == (platform.libc_ver()[0] == "glibc")


class TestIntegerConfig:
    def write(self, tmp_path, key: str, value: str) -> str:
        path = tmp_path / "c.cfg"
        path.write_text(f"{SET_A_CONFIG}{key} = {value}\n")
        return str(path)

    def test_config_seed_above_2_53_is_exact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("EIHLAB_SEED", raising=False)
        outs = {}
        for seed in (2**53, 2**53 + 1):
            _, outs[seed], _ = run_cli(capsys, "simulate", "--paths", "3",
                                       "--config", self.write(tmp_path, "run.seed", str(seed)))
        _, flag, _ = run_cli(capsys, "simulate", "--paths", "3", "--config",
                             self.write(tmp_path, "run.seed", "0"), "--seed", str(2**53 + 1))
        assert outs[2**53] != outs[2**53 + 1] == flag

    @pytest.mark.parametrize("text, value", [
        ("12", 12), (" -3 ", -3), ("1e3", 1000), ("2.0", 2),
        (str(2**53 + 1), 2**53 + 1), (str(2**64 + 7), 2**64 + 7), ("9.007199254740992e15", 2**53),
    ])
    def test_integer_values(self, text, value):
        assert cli._integer({"k": text}, "k") == value

    @pytest.mark.parametrize("argv, key, value", [
        (("simulate",), "run.n_paths", "2.5"),
        (("simulate",), "run.n_paths", "1e20"),
        (("simulate",), "run.n_paths", "nan"),
        (("simulate",), "run.n_paths", "abc"),
        (("simulate", "--paths", "3"), "run.seed", "4.5"),
        (("simulate", "--paths", "3"), "run.seed", "1.8446744073709552e19"),
        (("verify", "--prop", "two_sided"), "run.workers", "1.5"),
        (("table", "--study", "lemma", "--paths", "100"), "run.trials", "inf"),
    ])
    def test_non_integer_is_one_error_line(self, capsys, tmp_path, monkeypatch,
                                           argv, key, value):
        monkeypatch.delenv("EIHLAB_SEED", raising=False)
        code, out, err = run_cli(capsys, *argv, "--config", self.write(tmp_path, key, value))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {key}")


class TestMemoryError:
    @pytest.mark.parametrize("argv, module, name", [
        (("simulate", "--paths", "5"), cli, "simulate_terminal"),
        (("simulate", "--steps", "5"), cli, "simulate_paths"),
        (("hedge", "--paths", "1000"), cli.experiments, "hedging_fidelity_study"),
    ])
    def test_exhausted_memory_is_one_error_line(self, capsys, monkeypatch, config_path,
                                                argv, module, name):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(module, name, exhausted)
        code, out, err = run_cli(capsys, *argv, "--config", config_path)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")


# Inputs for the CLI fuzz test.  Each run changes a few fields of a
# valid invocation, so that one bad value at a time meets code past the
# parsing; every valid path count is at most 200 and every valid worker
# count at most 2, so no example runs long.
_ODD = ["", "abc", "nan", "inf", "-inf", "1e400", "0x10", "2.5", "-0", ",", "1,,2"]
_SEEDS = st.one_of(st.integers(-(2**70), -1), st.integers(0, 1000),
                   st.integers(2**64 - 2, 2**70)).map(str)
_REALS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "1", "1e-300"]),
                   st.floats(-1.0, 2.0).map(repr))
_GRIDS = st.sampled_from(_ODD + ["10", "2.5,10", "10,2.5", "0,1", " 1 , 2 "])
_HEADS = [("price",), ("thresholds",), ("simulate",), ("hedge",),
          ("verify", "--prop", "two_sided"), ("verify", "--prop", "mu_bis"),
          ("verify", "--prop", "index"), ("verify", "--prop", "nonsense"),
          ("table", "--study", "convergence"), ("table", "--study", "lemma")]
# field -> values; "run.*" and "market.*" go to the config file, "--*" to
# the command line and EIHLAB_SEED to the environment
_FIELDS = {
    "run.seed": st.one_of(_SEEDS, st.sampled_from(_ODD)),
    "run.n_paths": st.one_of(st.integers(-2, 200).map(str), st.sampled_from(_ODD + ["1e2"])),
    "run.workers": st.one_of(st.integers(-1, 2).map(str), st.sampled_from(_ODD)),
    "run.trials": st.sampled_from(["-1", "0", "1", "2", "1.5", "abc"]),
    "run.delta": _REALS,
    "run.eps": _REALS,
    "run.measure": st.sampled_from(["risk-neutral", "risk_neutral", " PHYSICAL ", "q", ""]),
    "run.t_grid": _GRIDS,
    "market.t": st.sampled_from(["0", "-1", "nan", "1e-300", "1e300"]),
    "market.sigma_s": st.sampled_from(["0.15, 0.05", "0.25", "0, 0", "inf, 0", "a,b", ""]),
    "--paths": st.one_of(st.integers(-2, 200).map(str), st.sampled_from(["2.5", "x"])),
    "--steps": st.one_of(st.integers(-1, 16).map(str), st.sampled_from(["1e1", ""])),
    "--workers": st.integers(-1, 2).map(str),
    "--seed": _SEEDS,
    "--delta": _REALS,
    "--eps": _REALS,
    "--measure": st.sampled_from(["physical", "risk-neutral", "risk_neutral"]),
    "--t-grid": _GRIDS,
    "--out": st.sampled_from(["out.txt", "."]),  # a file, or the directory itself
    "EIHLAB_SEED": st.one_of(_SEEDS, st.sampled_from(_ODD)),
}


def _command_flags(command: str) -> set[str]:
    """The run flags ``command`` reads, from the CLI's command table."""
    flags = set()
    for entry in cli._COMMANDS[command][2]:
        flags.update(entry if isinstance(entry, tuple) else (entry,))
    return flags


@st.composite
def _invocations(draw, out_dir):
    """(argv, config text, environment) for one CLI run."""
    argv = list(draw(st.sampled_from(_HEADS)))
    own = _command_flags(argv[0]) | {"--out"}
    fields = [f for f in sorted(_FIELDS) if not f.startswith("--") or f in own]
    foreign = [f for f in sorted(_FIELDS) if f not in fields]
    chosen = draw(st.sets(st.sampled_from(fields), max_size=3))
    # about one run in five also passes a flag the command does not read
    if draw(st.integers(0, 4)) == 4:
        chosen.add(draw(st.sampled_from(foreign)))
    config = {"run.n_paths": "100", "run.trials": "2", "run.t_grid": "2.5,10"}
    env = {}
    for field in sorted(chosen):
        value = draw(_FIELDS[field])
        if field == "--out":
            argv += [field, str(out_dir / value)]
        elif field.startswith("--"):
            argv += [field, value]
        elif field == "EIHLAB_SEED":
            env[field] = value
        else:
            config[field] = value
    text = SET_A_CONFIG + "".join(f"{k} = {v}\n" for k, v in config.items())
    return argv, text, env


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200)
@given(data=st.data())
def test_cli_fuzz_keeps_the_exit_code_contract(fuzz_dir, data):
    argv, text, env = data.draw(_invocations(fuzz_dir))
    config = fuzz_dir / "fuzz.cfg"
    config.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if not env:
            os.environ.pop("EIHLAB_SEED", None)
        try:
            code = main(argv + ["--config", str(config)])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(errors) == 1
        assert out.getvalue() == ""
    else:
        assert errors == []
