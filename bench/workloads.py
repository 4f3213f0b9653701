"""The four workloads: inputs from the seed, one timed operation, its check.

A workload runs operations ``k = 0, 1, 2, ...``; operation ``k`` takes
every input from the run seed and ``k``.  Only the program call is
timed; building inputs and checking outputs are not.  Operations of one
*kind* do the same amount of work (``terminal`` has one kind per
proposition and cycles through them; the others have one kind).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks

SET_A = dict(mu_i=0.06, mu_s=0.05, sigma_i=(0.15, 0.05), sigma_s=(0.25, -0.10),
             r=0.02, t=10.0)
DELTA = EPS = 0.05
TERMINAL_PATHS = 100_000
DETERMINISM_PATHS = 1_000_000
HEDGE_PATHS = 10_000
EXPORT_PATHS = 10_000
EXPORT_DESK_PATHS = 1_000_000
EXPORT_SAMPLES = 16
SCAN_SETS = 100
LEMMA_TRIALS = 1
LEMMA_DRAWS = 1024


class Work(NamedTuple):
    """Work done by one operation, counted three ways."""

    paths: float
    path_steps: float
    param_sets: float


class Result(NamedTuple):
    """One timed operation: its kind, wall time and the problems found
    in each checked output (an empty list is a correct one)."""

    kind: str
    wall_s: float
    problems: list


def derived_seed(seed: int, *tags: int) -> int:
    """A 63-bit seed for the program, a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0] >> 1)


def config_text(params: dict, n_paths: int) -> str:
    vec = lambda v: ", ".join(repr(float(x)) for x in v)  # noqa: E731
    return "\n".join([
        f"market.mu_i    = {float(params['mu_i'])!r}",
        f"market.mu_s    = {float(params['mu_s'])!r}",
        f"market.sigma_i = {vec(params['sigma_i'])}",
        f"market.sigma_s = {vec(params['sigma_s'])}",
        f"market.r       = {float(params['r'])!r}",
        f"market.t       = {float(params['t'])!r}",
        f"run.n_paths    = {n_paths}",
        f"run.delta      = {DELTA!r}",
        f"run.eps        = {EPS!r}",
        "",
    ])


class Workload:
    """``run(k)`` = ``prepare`` (untimed), ``call`` (timed), ``check``
    (untimed).  Subclasses define ``kinds``, ``work`` and the three steps."""

    kinds: tuple[str, ...] = ()
    # context entered around each timed call (the tracer's, in a traced run)
    around_call = staticmethod(contextlib.nullcontext)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.bytes_written = 0  # by the last CLI operation, output file included

    def kind(self, k: int) -> str:
        return self.kinds[k % len(self.kinds)]

    @classmethod
    def work(cls, kind: str) -> Work:
        raise NotImplementedError

    def desk_run(self) -> Result | None:
        """One desk-sized operation after the timed ones, for workloads
        whose peak memory grows with the operation's size; its wall time
        is reported but enters no throughput."""
        return None

    def run(self, k: int, workers: int = 1) -> Result:
        inputs = self.prepare(k, workers)
        with self.around_call():
            start = time.perf_counter()
            output = self.call(inputs)
            wall = time.perf_counter() - start
        return Result(self.kind(k), wall, self.check(inputs, output))

    def cli(self, args: list[str]) -> tuple[int, str]:
        """``eihlab.cli.main(args)`` with its standard output sent to a
        file, as a shell redirect would; returns the exit code and the
        path of that file."""
        import eihlab.cli

        stdout = self.work_dir / "op.stdout"
        with open(stdout, "w", encoding="utf-8") as out, \
                open(self.work_dir / "op.stderr", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = eihlab.cli.main(args)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        self.bytes_written = os.path.getsize(stdout)
        if "--out" in args and os.path.exists(args[args.index("--out") + 1]):
            self.bytes_written += os.path.getsize(args[args.index("--out") + 1])
        return code, str(stdout)


class Terminal(Workload):
    """``eihlab verify`` for the three propositions on SET_A."""

    # proposition, config, whether its drift bound holds there
    PROPS = (("two_sided", "set_a", None), ("mu_bis", "boundary", False),
             ("index", "set_a", True))
    kinds = tuple(p for p, _, _ in PROPS)

    def __init__(self, seed: int, work_dir: Path):
        from eihlab.experiments import mu_bis_boundary_params
        from eihlab.market import MarketParams

        super().__init__(seed, work_dir)
        boundary = mu_bis_boundary_params(MarketParams(**SET_A), DELTA, EPS, margin=1.0)
        self.configs = {}
        for name, params in (("set_a", SET_A), ("boundary", {**SET_A, "mu_s": boundary.mu_s})):
            path = work_dir / f"{name}.cfg"
            path.write_text(config_text(params, TERMINAL_PATHS), encoding="utf-8")
            self.configs[name] = str(path)

    @classmethod
    def work(cls, kind: str) -> Work:
        return Work(TERMINAL_PATHS, TERMINAL_PATHS, 1)

    def prepare(self, k: int, workers: int, paths: int | None = None) -> dict:
        prop, config, holds = self.PROPS[k % len(self.PROPS)]
        seed = derived_seed(self.seed, k)
        paths = paths or TERMINAL_PATHS
        return {"prop": prop, "holds": holds, "seed": seed, "paths": paths, "args": [
            "verify", "--config", self.configs[config], "--prop", prop, "--paths", str(paths),
            "--seed", str(seed), "--workers", str(workers)]}

    def call(self, inputs: dict) -> tuple[int, str]:
        return self.cli(inputs["args"])

    def check(self, inputs: dict, output: tuple[int, str]) -> list:
        code, stdout = output
        try:
            report = json.loads(Path(stdout).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = None
        return [checks.check_verify(inputs["prop"], code, report, inputs["paths"],
                                    inputs["seed"], inputs["holds"])]

    def determinism(self) -> tuple[list[str], float]:
        """``two_sided`` at DETERMINISM_PATHS with 1 and with 2 workers:
        the two JSON reports must be the same bytes.  Returns the
        problems and the 1-worker over 2-worker wall-time ratio."""
        walls, reports = [], []
        for workers in (1, 2):
            inputs = self.prepare(0, workers, DETERMINISM_PATHS)
            start = time.perf_counter()
            output = self.call(inputs)
            walls.append(time.perf_counter() - start)
            problems = self.check(inputs, output)[0]
            if problems:
                return problems, 0.0
            reports.append(Path(output[1]).read_bytes())
        if reports[0] != reports[1]:
            return ["two_sided: 2-worker JSON differs from 1-worker JSON"], 0.0
        return [], walls[0] / walls[1]


class Hedge(Workload):
    """``eihlab hedge`` (step counts 64/128/256/512) on SET_A."""

    kinds = ("hedge",)

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.config = work_dir / "set_a.cfg"
        self.config.write_text(config_text(SET_A, HEDGE_PATHS), encoding="utf-8")

    @classmethod
    def work(cls, kind: str) -> Work:
        steps = checks.HEDGE_STEPS
        return Work(HEDGE_PATHS * len(steps), HEDGE_PATHS * sum(steps), 1)

    def prepare(self, k: int, workers: int) -> list[str]:
        return ["hedge", "--config", str(self.config), "--paths", str(HEDGE_PATHS),
                "--seed", str(derived_seed(self.seed, k)), "--workers", str(workers)]

    def call(self, inputs: list[str]) -> tuple[int, str]:
        return self.cli(inputs)

    def check(self, inputs: list[str], output: tuple[int, str]) -> list:
        code, stdout = output
        return [checks.check_hedge(code, Path(stdout).read_text(encoding="utf-8"))]


class Export(Workload):
    """``eihlab simulate --paths N --out <csv>`` on SET_A."""

    kinds = ("simulate",)

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.config = work_dir / "set_a.cfg"
        self.config.write_text(config_text(SET_A, EXPORT_PATHS), encoding="utf-8")
        self.out = work_dir / "terminal.csv"

    @classmethod
    def work(cls, kind: str) -> Work:
        return Work(EXPORT_PATHS, EXPORT_PATHS, 1)

    def prepare(self, k: int, workers: int, paths: int | None = None) -> dict:
        self.out.unlink(missing_ok=True)
        seed = derived_seed(self.seed, k)
        paths = paths or EXPORT_PATHS
        return {"k": k, "seed": seed, "paths": paths, "args": [
            "simulate", "--config", str(self.config), "--paths", str(paths),
            "--seed", str(seed), "--out", str(self.out)]}

    def call(self, inputs: dict) -> tuple[int, str]:
        code, _ = self.cli(inputs["args"])
        return code, str(self.out)

    def expected_rows(self, seed: int, k: int, paths: int) -> dict[int, tuple]:
        """The sampler's own output at seeded rows.

        Drawn as one batch of the CLI's size: ``simulate_terminal`` with
        one path at ``first_path=k`` differs from row ``k`` of a large
        batch in the last bit on some paths (see NOTES.md).
        """
        from eihlab.market import MarketParams, Measure, simulate_terminal

        picks = np.random.default_rng([self.seed, k, 1]).choice(
            paths, EXPORT_SAMPLES, replace=False)
        sample = simulate_terminal(MarketParams(**SET_A), Measure.PHYSICAL, paths, seed)
        return {path: (float(sample.index[path]), float(sample.stock[path]))
                for path in sorted({0, paths - 1, *map(int, picks)})}

    def check(self, inputs: dict, output: tuple[int, str]) -> list:
        code, path = output
        expected = self.expected_rows(inputs["seed"], inputs["k"], inputs["paths"])
        return [checks.check_export(code, path, inputs["paths"], expected)]

    def desk_run(self) -> Result:
        """``simulate`` of EXPORT_DESK_PATHS rows: the CLI holds every
        row in memory, so peak memory is only meaningful at desk size."""
        inputs = self.prepare(2**32, 1, EXPORT_DESK_PATHS)
        start = time.perf_counter()
        output = self.call(inputs)
        wall = time.perf_counter() - start
        return Result("desk", wall, self.check(inputs, output))


class Scan(Workload):
    """Library loop over random markets (no bulk RNG) plus a lemma slice."""

    kinds = ("scan",)

    @classmethod
    def work(cls, kind: str) -> Work:
        draws = LEMMA_TRIALS * LEMMA_DRAWS
        return Work(draws, draws, SCAN_SETS)

    def prepare(self, k: int, workers: int) -> dict:
        """Markets drawn like the test suite's ``random_market``, with
        random delta and eps."""
        gen = np.random.default_rng([self.seed, k])
        sets = []
        for _ in range(SCAN_SETS):
            d = int(gen.integers(2, 5))
            while True:
                sigma_i = gen.uniform(-0.5, 0.5, size=d)
                sigma_s = gen.uniform(-0.5, 0.5, size=d)
                if (np.linalg.norm(sigma_i) > 1e-3 and np.linalg.norm(sigma_s) > 1e-3
                        and np.linalg.norm(sigma_i - sigma_s) > 1e-3):
                    break
            mu_i, mu_s = float(gen.uniform(-0.1, 0.2)), float(gen.uniform(-0.1, 0.2))
            r, t = float(gen.uniform(0.0, 0.1)), float(gen.uniform(0.5, 100.0))
            delta, eps = float(gen.uniform(0.01, 0.5)), float(gen.uniform(0.01, 0.5))
            sets.append((mu_i, mu_s, sigma_i.tolist(), sigma_s.tolist(), r, t, delta, eps))
        return {"sets": sets, "lemma_seed": derived_seed(self.seed, k, 2)}

    def call(self, inputs: dict) -> dict:
        from eihlab.analytic import DigitalSpec, Direction, digital_price, thresholds
        from eihlab.experiments import lemma_crosscheck
        from eihlab.market import MarketParams, reduce_dimension
        from eihlab.strategies import bound_check

        holds = []
        prices = []
        for mu_i, mu_s, s_i, s_s, r, t, delta, eps in inputs["sets"]:
            params = MarketParams(mu_i=mu_i, mu_s=mu_s, sigma_i=s_i, sigma_s=s_s, r=r, t=t)
            holds.append(tuple(bound_check(params, delta, eps, which).holds
                               for which in ("mu_bis", "index", "capm1", "capm_final")))
            reduced = reduce_dimension(params)
            a, b = thresholds(reduced, params.t, delta)
            prices.append((
                digital_price(reduced, DigitalSpec.at_level(Direction.AT_MOST, a), params.t),
                digital_price(reduced, DigitalSpec.at_level(Direction.AT_LEAST, b), params.t),
            ))
        lemma = lemma_crosscheck(LEMMA_TRIALS, inputs["lemma_seed"], n_mc=LEMMA_DRAWS)
        return {"holds": holds, "prices": prices, "lemma": lemma}

    def check(self, inputs: dict, output: dict) -> list:
        problems = [checks.check_scan_set(holds, prices, s[6]) for s, holds, prices
                    in zip(inputs["sets"], output["holds"], output["prices"])]
        problems += [checks.check_lemma_row(row) for row in output["lemma"]]
        expected = SCAN_SETS + LEMMA_TRIALS
        if len(problems) != expected:
            problems.append([f"scan: {len(problems)} results, expected {expected}"])
        return problems


WORKLOADS = {"terminal": Terminal, "hedge": Hedge, "export": Export, "scan": Scan}


def make(name: str, seed: int, work_dir: Path) -> Workload:
    os.makedirs(work_dir, exist_ok=True)
    return WORKLOADS[name](seed, work_dir)
