"""Byte pins of the command-line outputs.

Each case runs the CLI at a fixed seed and compares the SHA-256 of its
stdout, and its exit code, with a frozen value.  A refactor that should
change no number must leave every digest as it is.  A deliberate change
of the random stream (or of a report format) changes them, like
``test_normal_stream_is_frozen``, and needs a CHANGES.md note.
"""

import hashlib

import pytest

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
    "table_convergence": ("holds", "table", "--study", "convergence", "--t-grid", "2.5,10,40",
                          "--paths", "10000", "--seed", "18"),
    "simulate_terminal": ("holds", "simulate", "--paths", "500", "--seed", "19"),
    "simulate_steps": ("fails", "simulate", "--steps", "64", "--measure", "risk-neutral",
                       "--seed", "20"),
}

# (exit code, SHA-256 of stdout) on random stream "v2"
PINS = {
    "hedge": (0, "231b2732f9e2e6157849a0b3a6e2d035b9e246723de8ab2c208981f959ddf2b0"),
    "simulate_steps": (0, "1e14b5c5054f2db70b2242886715bfce2095f740aa7ecb6b7b994f5af944f7cd"),
    "simulate_terminal": (0, "8da7e95ee875f48938dcc67f4fd0dca3dd38605ebf0923c4915ae0b7ffcf18cb"),
    "table_convergence": (0, "086ef988e6173dc0f7bd74250cf651bedaf719eadee5ac56377addf8ac68b824"),
    "verify_index_fails": (0, "8dc65137e61428510dc40de33436738cdef46f6d6feb96384e7b6750569927e0"),
    "verify_index_holds": (3, "4f0aefcbce86105efff5c69557eae47fb94bc489bb4371e4ed92a42a2d66b32c"),
    "verify_mu_bis_fails": (0, "c06ecef4597a9d8ac90eceda5150224874b2f37739cdcd4687f8b915e425691e"),
    "verify_mu_bis_holds": (3, "4426a7cea320e3160bf72cb884c67c5d434582d710356f80a73f7c597b6da889"),
    "verify_two_sided_fails": (0, "2489fd9d1fa44a010472c7ea7eb065dce65cba89201b14c0c8b70291211bbef3"),
    "verify_two_sided_holds": (0, "e081da3ebe8eced1adaf55a26ca8dadc1afea3d31372b66ad10915790149da79"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name, tmp_path, capsys):
    market, *argv = CASES[name]
    config = tmp_path / f"{market}.cfg"
    config.write_text(HOLDS_CONFIG if market == "holds" else FAILS_CONFIG)
    code = main([argv[0], "--config", str(config), *argv[1:]])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINS[name]
