"""The benchmark's span tracer still finds the functions it times."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# targets of functions deleted or renamed before the tracer was refreshed
RETIRED = {
    "eihlab.rng.philox4x64",
    "eihlab.cli.write_csv",
    "eihlab.normal.cached_upper_quantile",
    "eihlab.market.simulate_path",
    "eihlab.market.path_from_increments",
    "eihlab.market.reduce_dimension_vs_bond",
    "eihlab.market.log_ratio_law",
    "eihlab.strategies.analytic_wealth",
    "eihlab.strategies.hedged_wealth",
    "eihlab.experiments.verify_two_sided",
    "eihlab.experiments.verify_capm",
    "eihlab.experiments.verify_index_premium",
}


def _targets() -> tuple:
    # executed from its source, so that nothing is written next to it
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


def test_traced_names_resolve_except_the_retired_ones():
    # resolved as ``Tracer.install`` resolves them: "Class.method" is an
    # attribute of a module attribute
    missing = set()
    for _layer, module_name, attr, _count in _targets():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{attr}")
    assert missing <= RETIRED
