"""Byte pins of the command-line outputs.

Each case runs the CLI at a fixed seed and compares the SHA-256 of its
stdout, and its exit code, with a frozen value.  A refactor that should
change no number must leave every digest as it is.  A deliberate change
of the random stream or of the valuation (or of a report format)
changes them, like ``test_normal_stream_v4_is_frozen`` and
``test_uniform_stream_v4_is_frozen``, and needs a CHANGES.md note.
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

# (exit code, SHA-256 of stdout) on random stream "v4" (normals by
# ziggurat and the lemma's uniform triples by Generator.random, both on
# tiles of 4096 lanes), valuation "v2"; the hedge digests on "hedge v2",
# every step count read off the finest grid, with stock units divided by
# the scale before the ratio; the hedge and simulate_steps digests on
# path step "v2", the terminal sampler's lognormal rule taken once per
# step; table_convergence on the sample variance (n - 1) in tpd_se;
# verify_index_holds on drift bounds that read the stored norm_i_sq and
# delta_norm (its index bound's lhs is the bond drift gap's)
PINS = {
    "hedge": (0, "eeb806dbb61e6a326bbc84bc5d4c83833795ec456fd94c20359a79ee84f28a9c"),
    "hedge_one_path_chunk": (0, "c6496548738c47676ad276651346024e72a2cb6f04b447a205432b8616d31353"),
    "hedge_two_chunks": (0, "86fd253582dd9901fb8a6d342dceef77f5dfb1e9cffa4e4ae1be16386ab9b4d2"),
    "price": (0, "0fff58482eb3a3ba2e241bb2ad82c0f1e5c133949b60772304003ea863fd3796"),
    "simulate_steps": (0, "3b409362eaf1442dc89e7a093a90fd1f2b9a1e48f26f924de2219a1332d9a483"),
    "simulate_terminal": (0, "c52f09601c7fd2515c3baa97dc47a44c485825faf7fe368c58fcbcecebd7bd13"),
    "table_convergence": (0, "219dd84ab63e63c5cbb79379f7596e33bef175f1137fa59604e1ee498b884d85"),
    "table_lemma": (0, "0165b585a4df8c4b8373cc2cffca0c9c83448b7641f1711847248646b703992b"),
    "thresholds": (0, "774eca3b3cb484dea97fca08c7b14e02b41273c18a520e464fe47d786450d96c"),
    "verify_index_fails": (0, "6478eebb88642e804067dba445e43600cc224f0850370b2e777ccf43962b8386"),
    "verify_index_holds": (3, "7e294ae233861f687af6f96de858f513b01e806dd0f2271638146f4f7e9fb44c"),
    "verify_mu_bis_fails": (0, "78c53ba9aea5b5dcd140205d6c39acdb1d062247c17063e45e79a2a6859a2887"),
    "verify_mu_bis_holds": (3, "4426a7cea320e3160bf72cb884c67c5d434582d710356f80a73f7c597b6da889"),
    "verify_two_sided_fails": (0, "68caece826b06c48fc63b3e79d1cfe95e68db668e99d5b990b0884b5e52172d1"),
    "verify_two_sided_holds": (0, "6a0c71af6541b4df3eae0b638a9dc61cd3f26e243bc9fca5e85301a2c90578f2"),
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
