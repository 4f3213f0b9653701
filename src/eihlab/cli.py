"""Command-line front end.

Market parameters come from a flat key-value config file (``key = value``
per line, ``#`` comments); run options can be overridden by flags, with
precedence flag > EIHLAB_SEED (seed only) > config > default.  Each
command accepts ``--config``, ``--out`` and only the run flags it reads
(``_COMMANDS``); any other flag is a usage error.  Reports
are a single JSON object on stdout, tables are CSV with 17-significant-
digit floats; diagnostics go to stderr.  Exit codes: 0 pass, 1 fail,
2 usage error, 3 inconclusive.

Config schema::

    market.mu_i    = 0.06          # appreciation rates, per year
    market.mu_s    = 0.05
    market.sigma_i = 0.15, 0.05    # volatility vectors (required)
    market.sigma_s = 0.25, -0.10
    market.r       = 0.02          # interest rate
    market.t       = 10.0          # horizon, years
    run.seed       = 42
    run.n_paths    = 1000000
    run.delta      = 0.05
    run.eps        = 0.05
    run.measure    = physical      # or risk-neutral
    run.workers    = 1
    run.t_grid     = 2.5, 10, 40, 160
    run.trials     = 100           # lemma crosscheck triples
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import experiments
from .analytic import DigitalSpec, Direction, digital_price, log_thresholds, thresholds
from .market import MarketParams, Measure, simulate_paths, simulate_terminal

DEFAULT_SEED = 42

# rows that ``simulate`` samples, formats and writes at a time, so its
# memory does not grow with --paths; at 10^6 rows, 4096 to 65536 ran
# equally fast and 16384 peaked at 63 MB against 80 MB for 65536
SIMULATE_CHUNK_ROWS = 16384

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_RUN_DEFAULTS = {
    "run.seed": str(DEFAULT_SEED),
    "run.n_paths": "100000",
    "run.delta": "0.05",
    "run.eps": "0.05",
    "run.measure": "physical",
    "run.workers": "1",
    "run.t_grid": "",
    "run.trials": "100",
    "market.mu_i": "0.0",
    "market.mu_s": "0.0",
    "market.r": "0.0",
    "market.t": "1.0",
}


# argparse settings of the run flags; each command takes those it reads
_FLAGS = {
    "--seed": {"type": int, "metavar": "U64"},
    "--paths": {"type": int, "metavar": "N"},
    "--steps": {"type": int, "metavar": "N"},
    "--delta": {"type": float, "metavar": "F"},
    "--eps": {"type": float, "metavar": "F"},
    "--measure": {"choices": ["physical", "risk-neutral"]},
    "--workers": {"type": int, "metavar": "N"},
    "--t-grid": {"metavar": "T1,T2,..."},
    "--prop": {"required": True, "metavar": "NAME",
               "help": "one of " + ", ".join(experiments.PROPOSITIONS)},
    "--study": {"required": True, "choices": ["convergence", "lemma"]},
}

# flag destination -> the config key it overrides; ``str`` of a float
# flag is its ``repr``, so the value reads back as the same float
_OVERRIDES = {"paths": "run.n_paths", "delta": "run.delta", "eps": "run.eps",
              "measure": "run.measure", "workers": "run.workers", "t_grid": "run.t_grid"}


class UsageError(Exception):
    pass


def _parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_config(path: str | None) -> dict[str, str]:
    values = dict(_RUN_DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values.update(_parse_config_text(fh.read()))
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _vector(values: dict[str, str], key: str) -> np.ndarray:
    if key not in values:
        raise UsageError(f"missing required config field: {key}")
    try:
        return np.array([float(x) for x in values[key].split(",")])
    except ValueError as exc:
        raise UsageError(f"bad vector for {key}: {values[key]!r}") from exc


def _real(values: dict[str, str], key: str) -> float:
    try:
        out = float(values[key])
    except ValueError as exc:
        raise UsageError(f"bad number for {key}: {values[key]!r}") from exc
    if not math.isfinite(out):
        raise UsageError(f"{key} must be finite")
    return out


def _integer(values: dict[str, str], key: str) -> int:
    """An integer literal exactly, or an integral float literal such as
    ``1e6`` up to 2^53, beyond which a float no longer names one integer."""
    text = values[key].strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        out = float(text)
    except ValueError:
        out = math.nan
    if not (out.is_integer() and abs(out) <= 2**53):
        raise UsageError(f"{key} must be an integer, got {values[key]!r}")
    return int(out)


def market_from_config(values: dict[str, str]) -> MarketParams:
    try:
        return MarketParams(
            mu_i=_real(values, "market.mu_i"),
            mu_s=_real(values, "market.mu_s"),
            sigma_i=_vector(values, "market.sigma_i"),
            sigma_s=_vector(values, "market.sigma_s"),
            r=_real(values, "market.r"),
            t=_real(values, "market.t"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_seed(args, values: dict[str, str]) -> int:
    env = os.environ.get("EIHLAB_SEED")
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif env is not None:
        try:
            seed, source = int(env), "EIHLAB_SEED"
        except ValueError as exc:
            raise UsageError(f"EIHLAB_SEED must be an integer, got {env!r}") from exc
    else:
        seed, source = _integer(values, "run.seed"), "run.seed"
    if not 0 <= seed < 2**64:
        raise UsageError(f"{source} must lie in [0, 2^64), got {seed}")
    return seed


def _apply_overrides(args, values: dict[str, str]) -> None:
    for dest, key in _OVERRIDES.items():
        flag = getattr(args, dest, None)
        if flag is not None:
            values[key] = str(flag)


def _measure(values: dict[str, str]) -> Measure:
    tag = values["run.measure"].strip().lower().replace("-", "_")
    try:
        return Measure(tag)
    except ValueError as exc:
        raise UsageError(f"unknown measure: {values['run.measure']!r}") from exc


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """Write text pieces to stdout and, with ``--out``, to that file.

    The file is opened before the first piece is produced, so an
    unwritable path fails before anything reaches stdout.
    """
    if not out_path:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as sink:
            for piece in pieces:
                sys.stdout.write(piece)
                sink.write(piece)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from exc


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _columns_csv(header: str, row_format: str, chunks: Iterable[tuple]) -> Iterator[str]:
    """Each chunk of equal-length columns as one ``%``-format call over
    its rows (``%.17g`` is ``format(x, ".17g")``); the header goes out
    with the first chunk, so a failure to sample it leaves no output."""
    prefix = header + "\n"
    for columns in chunks:
        width, rows = len(columns), len(columns[0])
        flat = [None] * (width * rows)
        for j, column in enumerate(columns):
            flat[j::width] = column
        yield prefix + (row_format * rows) % tuple(flat)
        prefix = ""


def _rows_csv(header: list[str], rows: list[dict], ints: tuple[str, ...] = ()) -> Iterator[str]:
    """Table rows as one chunk of columns, the ``ints`` columns ``%d``."""
    row_format = ",".join("%d" if name in ints else "%.17g" for name in header) + "\n"
    columns = [[row[name] for row in rows] for name in header]
    return _columns_csv(",".join(header), row_format, [columns])


def _terminal_chunks(params: MarketParams, measure: Measure, n_paths: int,
                     seed: int) -> Iterator[tuple]:
    """(path, I_T, S_T) columns in chunks of SIMULATE_CHUNK_ROWS rows;
    path ``k`` uses counter ``(seed, k)``, so chunking changes no bit."""
    for lo in range(0, n_paths, SIMULATE_CHUNK_ROWS):
        hi = min(lo + SIMULATE_CHUNK_ROWS, n_paths)
        terminal = simulate_terminal(params, measure, hi - lo, seed, first_path=lo)
        yield range(lo, hi), terminal.index.tolist(), terminal.stock.tolist()


# ---------------------------------------------------------------------------
# Subcommands


def _band_edges(params: MarketParams, delta: float) -> tuple[float, float, float, float]:
    """(a, b, ln a, ln b); the logs are the stored values that payoffs and
    events compare against, not logs of the rounded exponentials."""
    try:
        a, b = thresholds(params.reduced, params.t, delta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return (a, b, *log_thresholds(params.reduced.delta_norm, params.t, delta))


def cmd_price(args, values: dict[str, str]) -> int:
    params = market_from_config(values)
    delta = _real(values, "run.delta")
    a, b, log_a, log_b = _band_edges(params, delta)
    price_low = digital_price(
        params.reduced, DigitalSpec(Direction.AT_MOST, log_a), params.t)
    price_high = digital_price(
        params.reduced, DigitalSpec(Direction.AT_LEAST, log_b), params.t)
    payload = {
        "schema_version": 1,
        "delta": delta,
        "threshold_a": a,
        "threshold_b": b,
        "price_at_most_a": price_low,
        "price_at_least_b": price_high,
        "total_price": price_low + price_high,
    }
    _emit([_json_text(payload)], args.out)
    return EXIT_PASS


def cmd_thresholds(args, values: dict[str, str]) -> int:
    params = market_from_config(values)
    delta = _real(values, "run.delta")
    a, b, log_a, log_b = _band_edges(params, delta)
    payload = {"schema_version": 1, "delta": delta, "a": a, "b": b,
               "log_a": log_a, "log_b": log_b}
    _emit([_json_text(payload)], args.out)
    return EXIT_PASS


def cmd_simulate(args, values: dict[str, str]) -> int:
    params = market_from_config(values)
    seed = _resolve_seed(args, values)
    measure = _measure(values)
    if args.steps is not None:
        try:
            batch = simulate_paths(params, measure, args.steps, 1, seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        chunks = [(batch.times.tolist(), batch.index_values[0].tolist(),
                   batch.stock_values[0].tolist())]
        _emit(_columns_csv("time,index,stock", "%.17g,%.17g,%.17g\n", chunks), args.out)
    else:
        n_paths = _integer(values, "run.n_paths")
        if n_paths < 1:
            raise UsageError("n_paths must be at least 1")
        chunks = _terminal_chunks(params, measure, n_paths, seed)
        _emit(_columns_csv("path,index_terminal,stock_terminal", "%d,%.17g,%.17g\n", chunks),
              args.out)
    return EXIT_PASS


def _experiment_config(args, values: dict[str, str], *,
                       reads_eps: bool = True) -> experiments.ExperimentConfig:
    """The experiment inputs of a run.  With ``reads_eps=False`` (the
    hedging study reads no eps) ``run.eps`` is not parsed and the config
    keeps its default eps."""
    try:
        fields = {"params": market_from_config(values), "delta": _real(values, "run.delta")}
        if reads_eps:
            fields["eps"] = _real(values, "run.eps")
        return experiments.ExperimentConfig(
            **fields,
            n_paths=_integer(values, "run.n_paths"),
            seed=_resolve_seed(args, values),
            n_workers=_integer(values, "run.workers"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_verify(args, values: dict[str, str]) -> int:
    if args.prop not in experiments.PROPOSITIONS:
        raise UsageError(f"unknown proposition {args.prop!r}; "
                         f"expected one of {sorted(experiments.PROPOSITIONS)}")
    config = _experiment_config(args, values)
    report = experiments.verify(config, args.prop)
    _emit([_json_text(experiments.report_to_dict(config, report))], args.out)
    print(f"runtime: {report.runtime_seconds:.2f}s", file=sys.stderr)
    if report.verdict == experiments.PASS:
        return EXIT_PASS
    if report.verdict == experiments.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_hedge(args, values: dict[str, str]) -> int:
    config = _experiment_config(args, values, reads_eps=False)
    try:
        rows = experiments.hedging_fidelity_study(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    header = ["n_steps", "median_abs_error", "rms_error", "max_abs_error",
              "analytic_negative_count", "hedged_negative_fraction", "hedged_min_wealth"]
    _emit(_rows_csv(header, rows, ints=("n_steps", "analytic_negative_count")), args.out)
    return EXIT_PASS


def cmd_table(args, values: dict[str, str]) -> int:
    seed = _resolve_seed(args, values)
    if args.study == "lemma":
        try:
            rows = experiments.lemma_crosscheck(
                _integer(values, "run.trials"), seed,
                n_mc=_integer(values, "run.n_paths"),
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        header = ["u1", "u2", "v1", "v2", "c", "closed_form", "quadrature",
                  "abs_gap", "mc_mean", "mc_se"]
        _emit(_rows_csv(header, rows), args.out)
        return EXIT_PASS
    params = market_from_config(values)
    delta = _real(values, "run.delta")
    eps = _real(values, "run.eps")
    n_workers = _integer(values, "run.workers")
    grid_text = values["run.t_grid"].strip()
    if not grid_text:
        raise UsageError("convergence table needs run.t_grid (or --t-grid)")
    try:
        t_grid = [float(x) for x in grid_text.split(",")]
        study = experiments.capm_convergence_study(
            params, delta, eps, t_grid,
            n_paths=_integer(values, "run.n_paths"), seed=seed, n_workers=n_workers,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    header = ["horizon", "width_mu_bis", "width_index", "width_capm1",
              "width_capm_final", "tpd_mc_mean", "tpd_target", "tpd_se"]
    for name, slope in study.slopes.items():
        print(f"log-log slope {name}: {slope:.12f}", file=sys.stderr)
    _emit(_rows_csv(header, study.rows), args.out)
    return EXIT_PASS


# command -> (handler, help, the flags it reads besides --config and
# --out); the flags in a tuple exclude each other
_COMMANDS = {
    "price": (cmd_price, "thresholds and digital component prices", ("--delta",)),
    "thresholds": (cmd_thresholds, "band edges for a given delta", ("--delta",)),
    "simulate": (cmd_simulate, "terminal pairs (or one path with --steps)",
                 ("--seed", ("--paths", "--steps"), "--measure")),
    "hedge": (cmd_hedge, "discrete replication fidelity table",
              ("--seed", "--paths", "--delta", "--workers")),
    "verify": (cmd_verify, "run a proposition experiment",
               ("--prop", "--seed", "--paths", "--delta", "--eps", "--workers")),
    "table": (cmd_table, "emit a study as CSV",
              ("--study", "--t-grid", "--seed", "--paths", "--delta", "--eps", "--workers")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eihlab",
        description="Digital-claim strategies on an index: pricing, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key-value config file")
        p.add_argument("--out", metavar="PATH", help="also write the report here")
        for flag in flags:
            if isinstance(flag, tuple):
                group = p.add_mutually_exclusive_group()
                for one in flag:
                    group.add_argument(one, **_FLAGS[one])
            else:
                p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = load_config(args.config)
        _apply_overrides(args, values)
        return args.func(args, values)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; use fewer paths or steps", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
