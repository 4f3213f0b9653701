"""Command-line front end.

Market parameters come from a flat key-value config file (``key = value``
per line, ``#`` comments); run options can be overridden by flags, with
precedence flag > EIHLAB_SEED (seed only) > config > default.  Each
command accepts ``--config``, ``--out`` and only the run flags it reads
(``_COMMANDS``); any other flag is a usage error.  Reports
are a single JSON object on stdout, tables are CSV whose columns are the
rows' keys; diagnostics go to stderr.  One writer formats every CSV:
ints as ``%d`` and floats as ``%.17g``, byte for byte, each chunk of rows
built as one NUL-padded byte matrix (``_csv_rows``).
Exit codes: 0 pass, 1 fail, 2 usage error, 3 inconclusive.  A
``ValueError`` from the config or the library is a usage error: ``main``
prints it as one ``error:`` line and exits 2, as does a config key that
is not in the schema below, and a failed write to stdout (a closed pipe)
or to the ``--out`` file, which the line names.  A closed stderr drops
the diagnostics and leaves the exit code as it is.  The argument parser
is built once per process, on the first ``main`` call, and every later
call reuses it.  On glibc the first ``main`` call also lets the process
keep the memory it frees (``_keep_freed_memory``), so that each chunk
reuses the pages of the last; ``import eihlab`` leaves the allocator
alone.

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
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from . import experiments
from .analytic import DigitalSpec, Direction, digital_price, log_thresholds, thresholds
from .market import MarketParams, Measure, simulate_paths, simulate_terminal
from .rng import check_paths

DEFAULT_SEED = 42

# rows that ``simulate`` samples, formats and writes at a time, so its
# memory does not grow with --paths; at 10^6 rows (2 vCPUs, start-up
# included) 4096 to 32768 took 0.54 s, 65536 took 0.61 s, and the peak
# RSS rose from 44 MB at 4096 to 48 MB at 16384 and 64 MB at 65536; a
# multiple of the random stream's tiles of 4096 lanes, so no tile is
# filled twice
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

_KEYS = frozenset(_RUN_DEFAULTS) | {"market.sigma_i", "market.sigma_s"}


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


def _parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def load_config(path: str | None) -> dict[str, str]:
    values = dict(_RUN_DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values.update(_parse_config_text(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
    return values


def _vector(values: dict[str, str], key: str) -> np.ndarray:
    if key not in values:
        raise ValueError(f"missing required config field: {key}")
    try:
        return np.array([float(x) for x in values[key].split(",")])
    except ValueError as exc:
        raise ValueError(f"bad vector for {key}: {values[key]!r}") from exc


def _real(values: dict[str, str], key: str, text: str | None = None) -> float:
    """``values[key]``, or ``text`` read under the name ``key``, as a
    finite float."""
    text = values[key] if text is None else text
    try:
        out = float(text)
    except ValueError as exc:
        raise ValueError(f"bad number for {key}: {text!r}") from exc
    if not math.isfinite(out):
        raise ValueError(f"{key} must be finite")
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
        raise ValueError(f"{key} must be an integer, got {values[key]!r}")
    return int(out)


def market_from_config(values: dict[str, str]) -> MarketParams:
    return MarketParams(
        mu_i=_real(values, "market.mu_i"),
        mu_s=_real(values, "market.mu_s"),
        sigma_i=_vector(values, "market.sigma_i"),
        sigma_s=_vector(values, "market.sigma_s"),
        r=_real(values, "market.r"),
        t=_real(values, "market.t"),
    )


def _resolve_seed(args, values: dict[str, str]) -> int:
    env = os.environ.get("EIHLAB_SEED")
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif env is not None:
        seed, source = _integer({"EIHLAB_SEED": env}, "EIHLAB_SEED"), "EIHLAB_SEED"
    else:
        seed, source = _integer(values, "run.seed"), "run.seed"
    if not 0 <= seed < 2**64:
        raise ValueError(f"{source} must lie in [0, 2^64), got {seed}")
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
        raise ValueError(f"unknown measure: {values['run.measure']!r}") from exc


@contextlib.contextmanager
def _out_file(path: str | None) -> Iterator:
    """The ``--out`` file, opened for writing (None without a path); an
    ``OSError`` in the block becomes a usage error that names the path."""
    if not path:
        yield None
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as sink:
            yield sink
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _stdout(call: Callable, *args) -> None:
    """``call(*args)``, a write or flush of stdout.  An ``OSError`` (say,
    a closed pipe) becomes a usage error that names stdout, and the file
    descriptor of stdout then points at ``os.devnull``, so that the
    interpreter's last flush of stdout at exit reports nothing more."""
    try:
        call(*args)
    except OSError as exc:
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stream without a descriptor
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise ValueError(f"cannot write stdout: {exc}") from exc


def _note(line: str) -> None:
    """``line`` to stderr.  A closed stderr (None, or one whose write
    fails) drops it, since the exit code already carries the outcome."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """Write text pieces to stdout and, with ``--out``, to that file.

    The file is opened before the first piece is produced, so an
    unwritable path fails before anything reaches stdout.  A failed
    write exits 2 with one ``error:`` line naming stdout or the file.
    """
    if sys.stdout is None:  # the process started with stdout closed
        raise ValueError("cannot write stdout: it is closed")
    with _out_file(out_path) as sink:
        for piece in pieces:
            _stdout(sys.stdout.write, piece)
            if sink is not None:
                sink.write(piece)
        _stdout(sys.stdout.flush)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CSV rows as one byte matrix
#
# A chunk of rows is built as a uint8 matrix with one row per byte
# position and one column per CSV row; each value has a fixed band of
# rows, NUL where its text is shorter.  The transposed matrix is the
# text with NULs in it, and ``bytes.translate`` deletes them.

# the ASCII digits of 0..9999, four bytes per number read as one uint32,
# so that one ``take`` gathers four digits
_DIGITS4 = (np.arange(10_000, dtype=np.int16)[:, None]
            // np.array([1000, 100, 10, 1], np.int16) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()

# 10^k for k <= 21, each an exact double
_POW10 = np.array([float(10**k) for k in range(22)])

# rows of a float's band: sign, the "0.000" lead of an exponent below 0,
# then 17 digits and a point in 18 rows; 24 is also the longest ``%.17g``
# text ("-2.2250738585072014e-308")
_FLOAT_ROWS = 24
_LEAD = np.array([ord(c) for c in "0.000"], np.uint8)[:, None]
_LEAD_UP_TO = np.array([-1, -1, -2, -3, -4], np.int8)[:, None]
_ROWS = np.arange(18, dtype=np.int8)[:, None]


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """The decimal digits of each of ``values`` (int64, at least 0) as
    ASCII, right-aligned in the rows of ``out``."""
    groups = np.empty((len(values), -(-len(out) // 4)), np.intp)
    for i in reversed(range(groups.shape[1])):
        quotient = values // 10_000
        groups[:, i] = values - quotient * 10_000
        values = quotient
    out[:] = _DIGITS4.take(groups).view(np.uint8).T[4 * groups.shape[1] - len(out):]


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a high part of at most 26 bits plus an exact low part."""
    c = x * 134217729.0  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10^k`` as the rounded product and its exact error, by
    Dekker's two-product ("A floating-point technique for extending the
    available precision", Numer. Math. 18, 1971) with Veltkamp's split."""
    b = _POW10.take(k)
    product = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return product, ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _put_floats(values: np.ndarray, band: np.ndarray) -> None:
    """``%.17g`` of each float into its column of ``band`` (24 rows).

    For 1e-4 <= |x| < 1e16 the 17 digits are the integer nearest to
    |x| 10^(16 - e), ties to even, where e is the decimal exponent: that
    product is exact as a rounded double p (an even integer, as p >= 2^53)
    plus its exact error.  Every other value (0, subnormals, inf, nan, and
    the exponent notation of ``%g``) is formatted by ``%`` one at a time.
    """
    a = np.abs(values)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    product, error = _scaled(a, k)
    # a 10^k must lie in [10^16, 10^17); the exact pair decides, where a
    # rounded log10 put e one off
    shift = (((product > 1e17) | (product == 1e17) & (error >= 0)).astype(np.intp)
             - ((product < 1e16) | (product == 1e16) & (error < 0)))
    moved = np.flatnonzero(shift)
    k[moved] -= shift[moved]
    product[moved], error[moved] = _scaled(a[moved], k[moved])
    mantissa = product.astype(np.int64) + np.rint(error).astype(np.int64)
    carried = mantissa == 10**17
    mantissa[carried] = 10**16
    k[carried] -= 1
    exponent = (16 - k).astype(np.int8)

    # a NUL on either side of the 17 digits: band rows 6.. read them
    # shifted by one after the point
    digits = np.zeros((19, len(a)), np.uint8)
    _digits(mantissa, digits[1:18])
    last = (_ROWS[:17] * (digits[1:18] != ord("0"))).max(axis=0)
    digits[1:18] *= _ROWS[:17] <= np.maximum(last, exponent)  # no trailing fraction zeros
    # the point follows digit `exponent` when a nonzero digit follows it;
    # 18 is past the band
    point = 18 - (17 - exponent) * ((last > exponent) & (exponent >= 0))
    at = _ROWS - point
    band[0] = (values < 0) * np.uint8(ord("-"))
    band[1:6] = _LEAD * (exponent <= _LEAD_UP_TO)
    band[6:] = digits[1:] * (at < 0) + digits[:-1] * (at > 0) + np.uint8(ord(".")) * (at == 0)
    if slow.size:
        _put_texts(band, slow, [b"%.17g" % x for x in values[slow].tolist()])


def _put_ints(values: np.ndarray, band: np.ndarray) -> None:
    """``%d`` of each int into its column of ``band``, which has a row for
    each character of the longest text; a negative int goes through ``%``."""
    _digits(np.maximum(values, 0), band)
    band[:-1] *= np.logical_or.accumulate(band[:-1] != ord("0"), axis=0)  # no leading zeros
    negative = np.flatnonzero(values < 0)
    if negative.size:
        _put_texts(band, negative, [b"%d" % i for i in values[negative].tolist()])


def _put_texts(band: np.ndarray, columns: np.ndarray, texts: list[bytes]) -> None:
    """Each text, NUL-padded, into its column of ``band``."""
    rows = len(band)
    band[:, columns] = np.frombuffer(
        b"".join(text.ljust(rows, b"\0") for text in texts), np.uint8).reshape(-1, rows).T


def _csv_rows(columns: tuple) -> str:
    """Equal-length columns as CSV rows: an integer column as ``%d``, any
    other as ``%.17g`` of its float64 values (``format(x, ".17g")``)."""
    bands = []
    for column in map(np.asarray, columns):
        if column.dtype.kind in "biu":
            column = column.astype(np.int64, copy=False)
            height = max(len(str(column.min())), len(str(column.max())))
            bands.append((_put_ints, column, height))
        else:
            bands.append((_put_floats, column.astype(np.float64, copy=False), _FLOAT_ROWS))
    text = np.empty((sum(height + 1 for *_, height in bands), len(bands[0][1])), np.uint8)
    at = 0
    for put, column, height in bands:
        put(column, text[at:at + height])
        text[at + height] = ord(",")
        at += height + 1
    text[-1] = ord("\n")
    return text.T.tobytes().translate(None, b"\0").decode("ascii")


def _columns_csv(header: str, chunks: Iterable[tuple]) -> Iterator[str]:
    """Each chunk of equal-length columns as its CSV rows; the header goes
    out with the first chunk, so a failure to sample it leaves no output."""
    prefix = header + "\n"
    for columns in chunks:
        yield prefix + _csv_rows(columns)
        prefix = ""


def _rows_csv(rows: list[dict]) -> Iterator[str]:
    """Table rows as one chunk of columns, headed by the first row's keys;
    a column whose first value is an ``int`` prints as ``%d``."""
    header = list(rows[0])
    columns = [np.array([row[name] for row in rows],
                        np.int64 if isinstance(rows[0][name], int) else np.float64)
               for name in header]
    return _columns_csv(",".join(header), [columns])


def _terminal_chunks(params: MarketParams, measure: Measure, n_paths: int,
                     seed: int) -> Iterator[tuple]:
    """(path, I_T, S_T) columns in chunks of SIMULATE_CHUNK_ROWS rows;
    path ``k`` uses the normal pair of lane ``k`` under ``seed``, so
    chunking changes no bit."""
    for lo in range(0, n_paths, SIMULATE_CHUNK_ROWS):
        hi = min(lo + SIMULATE_CHUNK_ROWS, n_paths)
        terminal = simulate_terminal(params, measure, hi - lo, seed, first_path=lo)
        yield np.arange(lo, hi), terminal.index, terminal.stock


# ---------------------------------------------------------------------------
# Subcommands


def _band_edges(params: MarketParams, delta: float) -> tuple[float, float, float, float]:
    """(a, b, ln a, ln b); the logs are the stored values that payoffs and
    events compare against, not logs of the rounded exponentials."""
    a, b = thresholds(params.delta_norm, params.t, delta)
    return (a, b, *log_thresholds(params.delta_norm, params.t, delta))


def cmd_price(args, values: dict[str, str]) -> int:
    params = market_from_config(values)
    delta = _real(values, "run.delta")
    a, b, log_a, log_b = _band_edges(params, delta)
    price_low = digital_price(params.delta_norm, DigitalSpec(Direction.AT_MOST, log_a), params.t)
    price_high = digital_price(params.delta_norm, DigitalSpec(Direction.AT_LEAST, log_b), params.t)
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
        batch = simulate_paths(params, measure, args.steps, 1, seed)
        chunks = [(batch.times, batch.index_values[0], batch.stock_values[0])]
        _emit(_columns_csv("time,index,stock", chunks), args.out)
    else:
        n_paths = _integer(values, "run.n_paths")
        check_paths(n_paths)
        chunks = _terminal_chunks(params, measure, n_paths, seed)
        _emit(_columns_csv("path,index_terminal,stock_terminal", chunks), args.out)
    return EXIT_PASS


def _experiment_config(args, values: dict[str, str], *,
                       reads_eps: bool = True) -> experiments.ExperimentConfig:
    """The experiment inputs of a run.  With ``reads_eps=False`` (the
    hedging study reads no eps) ``run.eps`` is not parsed and the config
    keeps its default eps."""
    fields = {"params": market_from_config(values), "delta": _real(values, "run.delta")}
    if reads_eps:
        fields["eps"] = _real(values, "run.eps")
    return experiments.ExperimentConfig(
        **fields,
        n_paths=_integer(values, "run.n_paths"),
        seed=_resolve_seed(args, values),
        n_workers=_integer(values, "run.workers"),
    )


def cmd_verify(args, values: dict[str, str]) -> int:
    config = _experiment_config(args, values)
    report = experiments.verify(config, args.prop)
    _emit([_json_text(experiments.report_to_dict(config, report))], args.out)
    _note(f"runtime: {report.runtime_seconds:.2f}s")
    if report.verdict == experiments.PASS:
        return EXIT_PASS
    if report.verdict == experiments.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_hedge(args, values: dict[str, str]) -> int:
    config = _experiment_config(args, values, reads_eps=False)
    _emit(_rows_csv(experiments.hedging_fidelity_study(config)), args.out)
    return EXIT_PASS


def cmd_table(args, values: dict[str, str]) -> int:
    seed = _resolve_seed(args, values)
    if args.study == "lemma":
        n_trials, n_mc = _integer(values, "run.trials"), _integer(values, "run.n_paths")
        if n_trials < 1:
            raise ValueError("run.trials must be at least 1")
        if n_mc < 2:
            raise ValueError("run.n_paths must be at least 2 for a standard error")
        rows = experiments.lemma_crosscheck(n_trials, seed, n_mc=n_mc)
        _emit(_rows_csv(rows), args.out)
        return EXIT_PASS
    params = market_from_config(values)
    delta = _real(values, "run.delta")
    eps = _real(values, "run.eps")
    n_workers = _integer(values, "run.workers")
    grid_text = values["run.t_grid"].strip()
    if not grid_text:
        raise ValueError("convergence table needs run.t_grid (or --t-grid)")
    study = experiments.capm_convergence_study(
        params, delta, eps, [_real(values, "run.t_grid", x) for x in grid_text.split(",")],
        n_paths=_integer(values, "run.n_paths"), seed=seed, n_workers=n_workers,
    )
    for name, slope in study.slopes.items():
        _note(f"log-log slope {name}: {slope:.12f}")
    _emit(_rows_csv(study.rows), args.out)
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


# glibc's ``mallopt`` parameters (``malloc.h``)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Let this process keep the memory it frees, on glibc; elsewhere do
    nothing.

    glibc serves a block of 128 KiB or more by a fresh ``mmap`` and
    returns it to the kernel when it is freed, so each chunk, CSV chunk
    or hedging step faults its arrays in again, page by page.  With the
    mmap threshold at 32 MiB and the trim threshold at 128 MiB, arrays
    under 32 MiB come from the heap, which keeps what the last chunk
    freed for the next one.  Either value alone faults more.
    """
    # no os.confstr (Windows), no such name (macOS), another C library
    # (an error or None), or no mallopt: leave the allocator as it is
    with contextlib.suppress(AttributeError, ValueError, OSError):
        if os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            import ctypes

            mallopt = ctypes.CDLL(None).mallopt
            mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            mallopt(_M_TRIM_THRESHOLD, 128 << 20)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call; later calls
    return the same object, which ``main`` shares, so do not mutate it."""
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
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        values = load_config(args.config)
        _apply_overrides(args, values)
        return args.func(args, values)
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except MemoryError:
        _note("error: out of memory; use fewer paths or steps")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
