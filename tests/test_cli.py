"""Command-line contract: parsing, precedence, exit codes, output stability."""

import json

import numpy as np
import pytest

from eihlab.cli import main

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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "set_a.cfg"
    path.write_text(SET_A_CONFIG)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # probability for about 5% of seeds; 16 is one of them
        code, out, _ = run_cli(capsys, "verify", "--config", config_path,
                               "--prop", "two_sided", "--seed", "16")
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

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
        (("simulate", "--paths", "5", "--seed", "-1"), None, None),
        (("verify", "--prop", "two_sided", "--seed", str(2**64)), None, None),
        (("simulate", "--paths", "5"), "-1", None),
        (("simulate", "--paths", "5"), str(2**64), None),
        (("simulate", "--paths", "5"), None, "-1"),
        (("hedge", "--paths", "1000"), None, "1e20"),
    ], ids=["paths-0", "steps-0", "t-grid-not-a-number", "lemma-paths-0",
            "flag-seed-negative", "flag-seed-2^64", "env-seed-negative", "env-seed-2^64",
            "config-seed-negative", "config-seed-above-2^64"])
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
        code, out, _ = run_cli(capsys, "table", "--config", config_path,
                               "--study", "hedging", "--paths", "1000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n_steps,median_abs_error")
        assert len(lines) == 5


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

    def test_unreadable_config_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "price", "--config", "/nonexistent.cfg")
        assert code == 2
        assert "cannot read" in err

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
