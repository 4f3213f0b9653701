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
# delta_norm (its index bound's lhs is the bond drift gap's); all under
# conftest's one CPU reference, numpy's AVX2 dispatch and OpenBLAS's
# Haswell kernels
PINS = {
    "hedge": (0, "228a2d38ac5f36da2ff02d6e17dc746c0136f05a8d2456cf7595932c380eb75b"),
    "hedge_one_path_chunk": (0, "a4ef797228746b1aad0f5df8e82a4b7d3ba973f4db825912a2ceae1562e16ef7"),
    "hedge_two_chunks": (0, "b47a4d57323afcb2d79b7c2bbfaefa2b8cc66c83dc6e002fbaddda70fc340a05"),
    "price": (0, "0fff58482eb3a3ba2e241bb2ad82c0f1e5c133949b60772304003ea863fd3796"),
    "simulate_steps": (0, "e37820eed362c7a7350a5ea02384936c8fb2a5a9577e9d17d5aa0bb99ea225e7"),
    "simulate_terminal": (0, "caa210dd4b21176c4d75255409bf043e0adfe2297f9ff177d1a7899e25c15adb"),
    "table_convergence": (0, "219dd84ab63e63c5cbb79379f7596e33bef175f1137fa59604e1ee498b884d85"),
    "table_lemma": (0, "067a4527ca9bbc3037546e27a09a2c5b2e8b3f8aceb7974d7140525e82ade28c"),
    "thresholds": (0, "774eca3b3cb484dea97fca08c7b14e02b41273c18a520e464fe47d786450d96c"),
    "verify_index_fails": (0, "6478eebb88642e804067dba445e43600cc224f0850370b2e777ccf43962b8386"),
    "verify_index_holds": (3, "2bc3f4e8353d0f79c73f8a9393a64032ba53b06dd27bd281f782120a20b6a034"),
    "verify_mu_bis_fails": (0, "78c53ba9aea5b5dcd140205d6c39acdb1d062247c17063e45e79a2a6859a2887"),
    "verify_mu_bis_holds": (3, "e972272ab4acd02df9fbb8f512d08ff560c6a6d388153747b92090273488d58f"),
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
