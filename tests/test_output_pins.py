"""Byte pins of the command-line outputs.

Each case runs the CLI at a fixed seed and compares the SHA-256 of its
stdout, and its exit code, with a frozen value.  A refactor that should
change no number must leave every digest as it is.  A deliberate change
of the random stream or of the valuation (or of a report format)
changes them, like ``test_normal_stream_is_frozen``, and needs a CHANGES.md note.
"""

import hashlib

import pytest

from eihlab import cli
from eihlab.cli import main

# SET_A; its drift bounds hold (mu_bis and index are inconclusive)
HOLDS_CONFIG = """\
market.mu_i    = 0.06
market.mu_s    = 0.05
market.sigma_i = 0.15, 0.05
market.sigma_s = 0.25, -0.10
market.r       = 0.02
market.t       = 10.0
run.delta      = 0.05
run.eps        = 0.05
"""

# SET_A with mu_i = 0.30: the mu_bis and index bounds both fail
FAILS_CONFIG = HOLDS_CONFIG.replace("market.mu_i    = 0.06", "market.mu_i    = 0.30")

VERIFY = ("--paths", "10000", "--workers", "2")

CASES = {
    "verify_two_sided_holds": ("holds", "verify", "--prop", "two_sided", *VERIFY, "--seed", "11"),
    "verify_two_sided_fails": ("fails", "verify", "--prop", "two_sided", *VERIFY, "--seed", "12"),
    "verify_mu_bis_holds": ("holds", "verify", "--prop", "mu_bis", *VERIFY, "--seed", "13"),
    "verify_mu_bis_fails": ("fails", "verify", "--prop", "mu_bis", *VERIFY, "--seed", "14"),
    "verify_index_holds": ("holds", "verify", "--prop", "index", *VERIFY, "--seed", "15"),
    "verify_index_fails": ("fails", "verify", "--prop", "index", *VERIFY, "--seed", "16"),
    "hedge": ("holds", "hedge", "--paths", "1000", "--seed", "17"),
    # 5,000 paths over two workers; named when the study ran chunks of
    # 4,096 paths, where 5,000 made two of them
    "hedge_two_chunks": ("holds", "hedge", "--paths", "5000", "--workers", "2", "--seed", "21"),
    # one path past 4,096, named when the study ran chunks of 4,096 paths;
    # with CHUNK_PATHS = 65,536 its 4,097 paths are one chunk, and
    # test_rows_equal_one_simulation_per_step_count covers a one-path
    # last chunk by shrinking the chunk size
    "hedge_one_path_chunk": ("holds", "hedge", "--paths", "4097", "--seed", "3"),
    "price": ("holds", "price"),
    "thresholds": ("holds", "thresholds"),
    "table_convergence": ("holds", "table", "--study", "convergence", "--t-grid", "2.5,10,40",
                          "--paths", "10000", "--seed", "18"),
    # the one CLI path through the quadrature oracle (100 triples)
    "table_lemma": ("holds", "table", "--study", "lemma", "--paths", "256", "--seed", "22"),
    "simulate_terminal": ("holds", "simulate", "--paths", "500", "--seed", "19"),
    "simulate_steps": ("fails", "simulate", "--steps", "64", "--measure", "risk-neutral",
                       "--seed", "20"),
}

# (exit code, SHA-256 of stdout) on random stream "v3", valuation "v2";
# the hedge digests on "hedge v2", every step count read off the finest
# grid, with stock units divided by the scale before the ratio; the hedge
# and simulate_steps digests on path step "v2", the terminal sampler's
# lognormal rule taken once per step
PINS = {
    "hedge": (0, "afafa0a8932a4dad464ff01b952ca8e203d4337473e63fd36211702c6063d05c"),
    "hedge_one_path_chunk": (0, "32750b9d002a2696cee5200c2e5177ff23bee7a3e2db526d3c1af359bd865085"),
    "hedge_two_chunks": (0, "b481c7c17095612027533c4e0b83f30f3e810bffed668a7e7bc81f8a1f75d24a"),
    "price": (0, "0fff58482eb3a3ba2e241bb2ad82c0f1e5c133949b60772304003ea863fd3796"),
    "simulate_steps": (0, "d7f537198257c737a3e92810a0048fa0efd4d8ac01a996feb58836f8e49bbb63"),
    "simulate_terminal": (0, "d1037f2e729e26d5d000ba55d757f14ac8d5e1508065492b81c43943902e0dc4"),
    "table_convergence": (0, "c072526f494b99ba6917f58fbbbf46834aa6b0a9a9ebac4fe62cd4d29da863f1"),
    "table_lemma": (0, "830526201660375b2bfb23d5a5c68db1d66e212f301938f7d14ae6644cfead00"),
    "thresholds": (0, "774eca3b3cb484dea97fca08c7b14e02b41273c18a520e464fe47d786450d96c"),
    "verify_index_fails": (0, "9f7b1f13361852f54864c4abc78e235da0ca52dec7d54260eabd0acdc2194777"),
    "verify_index_holds": (3, "56251f0adcaeac8b40152a02b5477a564e831f4a291fde3524300d93574cbfe8"),
    "verify_mu_bis_fails": (0, "2145329ef38c90bf149fbb383437903807a7c581305001911875abbc5008e0e9"),
    "verify_mu_bis_holds": (3, "4426a7cea320e3160bf72cb884c67c5d434582d710356f80a73f7c597b6da889"),
    "verify_two_sided_fails": (0, "26faa12b90dcf0aed01c506e67668cf5f035fafb4f3bebf9010e5d2b80c1dc42"),
    "verify_two_sided_holds": (0, "578ed578e05fb5c16a78b06aa63bcb8788d3d2b5a64e461a6ab1edcc7de38ef2"),
}


def _run_case(name, tmp_path, capsys) -> tuple[int, str]:
    market, *argv = CASES[name]
    config = tmp_path / f"{market}.cfg"
    config.write_text(HOLDS_CONFIG if market == "holds" else FAILS_CONFIG)
    code = main([argv[0], "--config", str(config), *argv[1:]])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name, tmp_path, capsys):
    assert _run_case(name, tmp_path, capsys) == PINS[name]


def test_one_process_reuses_one_parser(tmp_path, capsys):
    # every case in one process, in reverse order, each after a usage
    # error from argparse and one from the library, on the shared parser
    assert cli.build_parser() is cli.build_parser()
    config = tmp_path / "usage.cfg"
    config.write_text(HOLDS_CONFIG)
    for name in sorted(CASES, reverse=True):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(config)])
        assert exc.value.code == 2
        assert main(["verify", "--config", str(config), "--prop", "nonsense"]) == 2
        assert capsys.readouterr().out == ""
        assert _run_case(name, tmp_path, capsys) == PINS[name]
