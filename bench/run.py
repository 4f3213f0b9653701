"""eihlab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {terminal,hedge,export,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` (no install needed).  Every input is derived from ``--seed``.
One child interpreter (``bench/child.py``) runs the workload's
operations one after another, always with ``--workers 1``, until
``--seconds`` have passed; each operation is timed and checked on its
own.  Throughputs use each kind of operation's fastest run; ``setup_s``
is the median of several interpreter start-ups.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics from a traced run.
Lines before it give provenance and a readable summary.  See
``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_EXTRA_S = 90


def child(work: Path, args: list[str], timeout: float) -> dict:
    """Run ``child.py`` with ``args``; return its report.

    The child gets a session of its own, so that whatever it starts
    (the program's worker processes) is killed with it on every way out.
    """
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), os.environ.get("PYTHONPATH")) if p)
    with open(work / "child.stderr", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "--started", repr(started),
             "--report", str(report_path), *args],
            stdin=subprocess.DEVNULL, stdout=err, stderr=err, env=env, cwd=ROOT,
            start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not report_path.exists():
        tail = (work / "child.stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {tail}")
    with open(report_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Metrics


def best_walls(ops: list[dict]) -> dict[str, float]:
    """Fastest wall time per kind of operation, over operations that
    passed their checks (over all of a kind when none did)."""
    best: dict[str, float] = {}
    for kind in dict.fromkeys(op["kind"] for op in ops):
        of_kind = [op for op in ops if op["kind"] == kind]
        passed = [op for op in of_kind if not op["failed"]] or of_kind
        best[kind] = min(op["wall_s"] for op in passed)
    return best


def end_to_end(load: type, ops: list[dict], setups: list[float],
               peak_rss_mb: float) -> dict:
    """Work of one operation of each kind over the sum of their fastest
    wall times; ``setup_s`` is the median of the start-up samples."""
    best = best_walls(ops)
    work = [load.work(kind) for kind in best]
    wall = sum(best.values())

    def rate(attr: str) -> float:
        return sum(getattr(w, attr) for w in work) / wall

    return {
        "setup_s": (statistics.median(setups), "s"),
        "paths_per_s": (rate("paths"), "1/s"),
        "path_steps_per_s": (rate("path_steps"), "1/s"),
        "param_sets_per_s": (rate("param_sets"), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(report: dict) -> dict:
    """Per-layer counts and self times per traced operation, rates over
    the layer time the items were produced in."""
    traced = [op for op in report["ops"] if op["traced"]]
    n = float(len(traced))
    trace = report["trace"]
    layers = trace["layers"]
    functions = trace["functions"]

    def fn(name: str, key: str) -> float:
        return float(functions.get(name, {}).get(key, 0))

    def per_s(items: float, seconds: float) -> float:
        return items / seconds if seconds > 0 else 0.0

    def group(names: list[str], key: str) -> float:
        return sum(fn(name, key) for name in names)

    paths_evaluated = [f"strategies.{x}" for x in (
        "strategy_fires", "terminal_wealth", "event_two_sided", "event_one_sided",
        "event_recover")]
    analytic = [name for name in functions if name.startswith("analytic.")]
    rows = fn("cli.write_csv", "items")
    traced_best = best_walls(traced)
    reference_best = best_walls([op for op in report["ops"]
                                 if not op["traced"] and op["kind"] in traced_best])
    out = {f"{layer}.self_s": (layers[layer]["self_s"] / n, "s") for layer in tracing.LAYERS}
    out.update({
        "rng.counters": (fn("rng.philox4x64", "items") / n, "count"),
        "rng.counters_per_s": (per_s(fn("rng.philox4x64", "items"),
                                     layers["rng"]["self_s"]), "1/s"),
        "normal.quantiles": (fn("normal.std_normal_quantile", "items") / n, "count"),
        "normal.quantiles_per_s": (per_s(fn("normal.std_normal_quantile", "items"),
                                         fn("normal.std_normal_quantile", "layer_s")), "1/s"),
        "normal.cdf_evals": (fn("normal.std_normal_cdf", "items") / n, "count"),
        "normal.cdf_evals_per_s": (per_s(fn("normal.std_normal_cdf", "items"),
                                         fn("normal.std_normal_cdf", "layer_s")), "1/s"),
        "market.terminal_paths_per_s": (per_s(fn("market.simulate_terminal", "items"),
                                              fn("market.simulate_terminal", "layer_s")), "1/s"),
        "market.path_steps_per_s": (per_s(fn("market.simulate_paths", "items"),
                                          fn("market.simulate_paths", "layer_s")), "1/s"),
        "market.params_built": (fn("market.MarketParams.__init__", "calls") / n, "count"),
        "market.reduce_calls": (group(["market.reduce_dimension",
                                       "market.reduce_dimension_vs_bond"], "calls") / n,
                                "count"),
        "analytic.calls": (layers["analytic"]["calls"] / n, "count"),
        "analytic.values_per_s": (per_s(group(analytic, "items"),
                                        layers["analytic"]["self_s"]), "1/s"),
        "strategies.paths_evaluated_per_s": (per_s(group(paths_evaluated, "items"),
                                                   group(paths_evaluated, "layer_s")), "1/s"),
        "strategies.bound_checks_per_s": (per_s(fn("strategies.bound_check", "calls"),
                                                fn("strategies.bound_check", "layer_s")), "1/s"),
        "experiments.chunks": (fn("experiments._map_chunks", "items") / n, "count"),
        "experiments.speedup_2w": (report["speedup_2w"], "ratio"),
        "quadrature.calls": (layers["quadrature"]["calls"] / n, "count"),
        "cli.rows_written": (rows / n, "count"),
        "cli.bytes_written": (sum(op["bytes_written"] for op in traced) / n, "B"),
        "cli.rows_per_s": (per_s(rows, layers["cli"]["self_s"]), "1/s"),
        "trace.overhead_s": (sum(traced_best.values()) - sum(reference_best.values()), "s"),
        "trace.missing_names": (float(len(trace["missing"])), "count"),
    })
    if trace["missing"]:
        print(f"# trace: names not found (skipped): {sorted(trace['missing'])}")
    return out


# ---------------------------------------------------------------------------
# Reporting


def tail_percentile(walls: list[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(walls) * (100 - q) >= 1000:
            return f", p{q} {statistics.quantiles(walls, n=100)[q - 1]:.4f} s"
    return ""


def provenance() -> dict:
    import scipy

    import eihlab

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "eihlab": eihlab.__version__, "commit": commit}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(child(work, ["setup"], SETUP_TIMEOUT_S)["setup_s"])
    report = child(work, ["run", workload, str(seed), repr(seconds), str(int(trace)),
                          str(work / "ops")], seconds + RUN_TIMEOUT_EXTRA_S)
    setups.append(report["setup_s"])
    ops = report["ops"]
    load = workloads.WORKLOADS[workload]
    measured = [op for op in ops if op["traced"] == trace and op["kind"] in load.kinds]
    if trace:
        metrics = per_layer(report)
    else:
        metrics = end_to_end(load, measured, setups, report["peak_rss_mb"])
    attempted = sum(op["checked"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    for message in report["messages"]:
        print(f"# FAILED {message}")
    print(f"# provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"# workload {workload} seed {seed} trace {int(trace)} operations {len(ops)} "
          f"({len(measured)} measured) checked outputs {attempted}")
    for kind in dict.fromkeys(op["kind"] for op in measured):
        walls = [op["wall_s"] for op in measured if op["kind"] == kind]
        print(f"# {kind}: {len(walls)} runs, fastest {min(walls):.4f} s, "
              f"median {statistics.median(walls):.4f} s{tail_percentile(walls)}")
    for op in ops:
        if op["kind"] == "desk":
            print(f"# desk-sized operation (untimed for the metrics): {op['wall_s']:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value:.6g} {unit}")
    print(f"# metric failed_frac = {failed / attempted:.6g} fraction")
    if trace:
        total = sum(op["wall_s"] for op in measured) / len(measured)
        shares = {layer.split(".")[0]: value / total for layer, (value, _) in metrics.items()
                  if layer.endswith(".self_s")}
        roots = {name: seconds / len(measured) / total
                 for name, seconds in report["trace"]["roots"].items()}
        for label, table in (("layer self time", shares), ("top-level calls", roots)):
            print(f"# share of traced wall by {label}: " + ", ".join(
                f"{name} {share:.1%}" for name, share in
                sorted(table.items(), key=lambda kv: -kv[1])))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its child and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "eihlab" / "__init__.py").is_file():
        print(f"error: no eihlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eihlab  # noqa: F401  (compiles bytecode before any child is timed)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
