"""Monte Carlo experiments that certify the strategy guarantees.

Each proposition becomes a statistical experiment: simulate terminal
prices, take their log ratios once per chunk, evaluate the band event
and the strategy payoff path by path on them, and report the empirical
frequency with a Wilson 95% interval next to its closed-form target.
The payoff/event dichotomy is an algebraic identity of the
construction, so its violation count is asserted to be exactly zero
rather than small.  One runner, :func:`verify`, does this for every
proposition; what differs between them (drift bound, counts, target)
is an entry of :data:`PROPOSITIONS`, keyed by the CLI name.

Closed-form targets sharper than the stated guarantees (the exact beat
probability when a bound is violated with a given margin) are derived
here from the projection of the log ratio onto its driving direction;
they are implementation-side oracles, not quoted results.

Work is split into fixed-size path chunks whose draws depend only on
(seed, path index); chunk results are combined in chunk order, so a
report is bit-identical whether computed by one worker or eight.  Each
chunk task is a module-level function of plain data and the chunk
bounds, so that it and its arguments pickle: ``_verify_chunk`` (a
proposition's counts, by name), ``_log_ratio_sums`` (the convergence
study's float sums) and ``_hedge_chunk`` (the hedging study).  The
hedging study also shares draws across step counts: a path chunk draws
each step's normals once and moves every grid on by that step, through
the public steps :func:`eihlab.market.step_prices` and
:class:`eihlab.strategies.Replication`, keeping no path or wealth grid.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import strategies
from .market import (
    MarketParams,
    Measure,
    PricePoint,
    TerminalSample,
    simulate_terminal,
    step_prices,
)
from .normal import std_normal_cdf, upper_quantile
from .quadrature import halfspace_monte_carlo, halfspace_quadrature
from .rng import normal_pairs, uniform_pairs
from .strategies import (
    BoundReport,
    Side,
    Underlying,
    bond_drift_gap,
    bound_check,
    drift_gap,
    event_one_sided,
    event_recover,
    event_two_sided,
    strategy_fires,
    terminal_log_ratios,
)

CHUNK_PATHS = 1 << 16

_Z95 = upper_quantile(0.025)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the verification experiments."""

    params: MarketParams
    delta: float
    eps: float = 0.05
    n_paths: int = 10**6
    seed: int = 42
    n_workers: int = 1

    def __post_init__(self):
        if self.n_paths < 10**3:
            raise ValueError("n_paths must be at least 1000")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one verification experiment.

    ``runtime_seconds`` is informational and deliberately excluded from
    serialized reports, which must be byte-identical across reruns.
    """

    proposition: str
    empirical_probability: float | None
    wilson_ci_95: tuple[float, float] | None
    theoretical_target: float | None
    target_kind: str
    dichotomy_violations: int
    bound: BoundReport | None
    verdict: str
    runtime_seconds: float
    extras: dict = field(default_factory=dict)


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p_hat = successes / trials
    z_sq = _Z95 * _Z95
    denom = 1.0 + z_sq / trials
    center = (p_hat + z_sq / (2.0 * trials)) / denom
    margin = (_Z95 / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z_sq / (4.0 * trials * trials)
    )
    # exactly 0 (1) at no (all) successes, where center -/+ margin cancels
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return (low, high)


def _map_chunks(n_paths: int, n_workers: int, task: Callable, *args) -> list:
    """Apply ``task(*args, first_path, count)`` over chunks of CHUNK_PATHS paths.

    Chunk boundaries do not depend on the worker count and results are
    returned in chunk order, which keeps every reduction bit-identical
    for any ``n_workers``.  A run of one chunk starts no pool, and a pool
    has no more threads than chunks.
    """
    chunks = [(s, min(CHUNK_PATHS, n_paths - s)) for s in range(0, n_paths, CHUNK_PATHS)]
    n_threads = min(n_workers, len(chunks))
    if n_threads <= 1:
        return [task(*args, *chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(lambda chunk: task(*args, *chunk), chunks))


# ---------------------------------------------------------------------------
# Closed-form targets (implementation-derived sharpenings)


def band_probability(gap: float, delta_norm: float, horizon: float, z: float) -> float:
    """P(|X| < z * delta_norm * sqrt(T)) for X ~ N(gap*T, delta_norm^2 T)."""
    shift = gap * math.sqrt(horizon) / delta_norm
    return float(std_normal_cdf(z - shift) - std_normal_cdf(-z - shift))


def one_sided_beat_probability(
    gap: float, delta_norm: float, horizon: float, delta: float
) -> float:
    """Exact firing probability of the sign-matched one-sided strategy."""
    z = upper_quantile(delta)
    shift = abs(gap) * math.sqrt(horizon) / delta_norm
    return float(std_normal_cdf(shift - z))


def exact_capm_params(params: MarketParams) -> MarketParams:
    """Same market with mu_s moved to its index-implied level (zero gap)."""
    return replace(params, mu_s=params.mu_i - params.norm_i_sq + params.cross)


def mu_bis_boundary_params(
    params: MarketParams, delta: float, eps: float, margin: float
) -> MarketParams:
    """Move mu_s so the one-sided drift bound is violated by ``margin``.

    ``margin`` is the ratio of the drift gap to the bound width; the gap
    is nudged up by one part in 1e12 so that margin 1.0 lands strictly
    outside the bound in floating point as well.
    """
    sqrt_t = math.sqrt(params.t)
    width = ((upper_quantile(delta) + upper_quantile(eps))
             * params.spread_norm / sqrt_t)
    gap = margin * width * (1.0 + 1e-12)
    base = exact_capm_params(params)
    return replace(base, mu_s=base.mu_s + gap)


# ---------------------------------------------------------------------------
# Proposition experiments


def _two_sided_counts(config: ExperimentConfig, terminal: TerminalSample) -> tuple[int, int]:
    """Band event frequency; on every path either the band event holds
    or the band strategy collects 1/delta times the index."""
    params, delta = config.params, config.delta
    strategy = strategies.build_two_sided(params, delta)
    log_ratios = terminal_log_ratios(params, terminal, Underlying.STOCK)
    event = event_two_sided(params, delta, log_ratios[Underlying.STOCK])
    fires = strategy_fires(strategy, log_ratios)
    return int(event.sum()), int((event == fires).sum())


def _mu_bis_counts(config: ExperimentConfig, terminal: TerminalSample) -> tuple[int, int]:
    """Beat frequency of the one-sided stock strategy, tail picked by the
    sign of the drift gap, against the complementary one-sided event."""
    params, delta = config.params, config.delta
    side = Side.of_gap(drift_gap(params))
    strategy = strategies.build_one_sided(params, delta, side)
    log_ratios = terminal_log_ratios(params, terminal, Underlying.STOCK)
    fires = strategy_fires(strategy, log_ratios)
    event = event_one_sided(params, delta, log_ratios[Underlying.STOCK], side)
    return int(fires.sum()), int((event == fires).sum())


def _index_counts(config: ExperimentConfig, terminal: TerminalSample) -> tuple[int, int, int]:
    """Beat frequency of the one-sided bond strategy; the dichotomy and
    the extra count are those of the bond/index band (recover) event."""
    params, delta = config.params, config.delta
    band = strategies.build_index_vs_bond(params, delta)
    one_sided = strategies.build_bond_one_sided(params, delta)
    log_ratios = terminal_log_ratios(params, terminal, Underlying.BOND)
    recover = event_recover(params, delta, log_ratios[Underlying.BOND])
    band_fires = strategy_fires(band, log_ratios)
    beat = strategy_fires(one_sided, log_ratios)
    return int(beat.sum()), int((recover == band_fires).sum()), int(recover.sum())


def _index_extras(config: ExperimentConfig, counts: tuple[int, ...]) -> dict:
    params = config.params
    recover_ci = wilson_ci(counts[2], config.n_paths)
    return {
        "recover_probability": counts[2] / config.n_paths,
        "recover_ci_low": recover_ci[0],
        "recover_ci_high": recover_ci[1],
        "recover_target": band_probability(
            bond_drift_gap(params), params.reduced_vs_bond.delta_norm, params.t,
            upper_quantile(config.delta / 2.0),
        ),
    }


class Proposition(NamedTuple):
    """How :func:`verify` certifies one proposition.

    ``bound``: the drift bound whose failure makes the guarantee bite, or
    None; while it holds the verdict is inconclusive, and paths are
    simulated only for ``extras``.  ``counts(config, terminal)`` builds
    the strategies and returns a chunk's (headline successes, dichotomy
    violations, counts read by ``extras``).  ``target_kind`` "equals"
    passes when the Wilson interval covers ``target(config)``,
    "at_least" when it clears the 1 - eps guarantee.
    """

    bound: str | None
    counts: Callable[[ExperimentConfig, TerminalSample], tuple[int, ...]]
    target: Callable[[ExperimentConfig], float]
    target_kind: str
    extras: Callable[[ExperimentConfig, tuple[int, ...]], dict] | None = None


PROPOSITIONS = {
    "two_sided": Proposition(
        None, _two_sided_counts,
        lambda c: band_probability(drift_gap(c.params), c.params.reduced.delta_norm, c.params.t,
                                   upper_quantile(c.delta / 2.0)),
        "equals",
    ),
    "mu_bis": Proposition(
        "mu_bis", _mu_bis_counts,
        lambda c: one_sided_beat_probability(drift_gap(c.params), c.params.reduced.delta_norm,
                                             c.params.t, c.delta),
        "at_least",
    ),
    "index": Proposition(
        "index", _index_counts,
        lambda c: one_sided_beat_probability(bond_drift_gap(c.params),
                                             c.params.reduced_vs_bond.delta_norm,
                                             c.params.t, c.delta),
        "at_least", _index_extras,
    ),
}


def _beat_verdict(ci: tuple[float, float], guarantee: float) -> str:
    half_width = 0.5 * (ci[1] - ci[0])
    if ci[0] >= guarantee - 3.0 * half_width:
        return PASS
    if ci[1] < guarantee:
        return FAIL
    return INCONCLUSIVE


def _verify_chunk(config: ExperimentConfig, proposition: str, first: int,
                  count: int) -> tuple[int, ...]:
    """One chunk's counts of a proposition of :data:`PROPOSITIONS`."""
    terminal = simulate_terminal(config.params, Measure.PHYSICAL, count, config.seed,
                                 first_path=first)
    return PROPOSITIONS[proposition].counts(config, terminal)


def verify(config: ExperimentConfig, proposition: str) -> ExperimentReport:
    """Certify one proposition of :data:`PROPOSITIONS` by Monte Carlo.

    Simulates terminal prices under the physical measure in fixed
    chunks, sums the proposition's counts, and compares the headline
    frequency's Wilson interval with its target.  Any dichotomy
    violation fails the run, whatever its bound says.
    """
    start = time.perf_counter()
    spec = PROPOSITIONS[proposition]
    params = config.params
    bound = None
    if spec.bound is not None:
        bound = bound_check(params, config.delta, config.eps, spec.bound)
    gated = bound is not None and bound.holds
    totals: tuple[int, ...] = (0, 0)
    if not gated or spec.extras is not None:
        chunks = _map_chunks(config.n_paths, config.n_workers, _verify_chunk, config, proposition)
        totals = tuple(map(sum, zip(*chunks)))
    hits, violations = totals[:2]

    empirical = ci = target = None
    if gated:
        verdict = INCONCLUSIVE
    else:
        empirical = hits / config.n_paths
        ci = wilson_ci(hits, config.n_paths)
        target = spec.target(config)
        if spec.target_kind == "equals":
            verdict = PASS if ci[0] <= target <= ci[1] else FAIL
        else:
            verdict = _beat_verdict(ci, 1.0 - config.eps)
    if violations:
        verdict = FAIL
    return ExperimentReport(
        proposition=proposition,
        empirical_probability=empirical,
        wilson_ci_95=ci,
        theoretical_target=target,
        target_kind=spec.target_kind,
        dichotomy_violations=violations,
        bound=bound,
        verdict=verdict,
        runtime_seconds=time.perf_counter() - start,
        extras=spec.extras(config, totals) if spec.extras else {},
    )


# ---------------------------------------------------------------------------
# Studies


def _log_ratio_sums(params: MarketParams, seed: int, first: int,
                    count: int) -> tuple[float, float, int]:
    """A chunk's sum and sum of squares of ln(S_T / I_T), and its size."""
    terminal = simulate_terminal(params, Measure.PHYSICAL, count, seed, first_path=first)
    log_ratio = terminal_log_ratios(params, terminal, Underlying.STOCK)[Underlying.STOCK]
    return float(log_ratio.sum()), float((log_ratio * log_ratio).sum()), count


def capm_convergence_study(
    params: MarketParams,
    delta: float,
    eps: float,
    t_grid: Sequence[float],
    n_paths: int = 10**5,
    seed: int = 42,
    n_workers: int = 1,
) -> "ConvergenceStudy":
    """Bound widths over horizons, plus the log-performance-deficit check.

    The four bound widths scale exactly as C / sqrt(T); the study fits
    their log-log slopes and runs, per horizon, a Monte Carlo check that
    the mean log relative performance under zero-gap drifts matches
    ``-delta_norm^2 T / 2``.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must not be empty")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])) or t_grid[0] <= 0.0:
        raise ValueError("t_grid must be positive and strictly increasing")

    bounds = ("mu_bis", "index", "capm1", "capm_final")
    rows = []
    for horizon in t_grid:
        p_t = replace(exact_capm_params(params), t=horizon)
        results = _map_chunks(n_paths, n_workers, _log_ratio_sums, p_t, seed)
        total = sum(r[0] for r in results)
        total_sq = sum(r[1] for r in results)
        mean = total / n_paths
        var = max(total_sq / n_paths - mean * mean, 0.0)
        rows.append({
            "horizon": horizon,
            **{f"width_{name}": bound_check(p_t, delta, eps, name).rhs for name in bounds},
            "tpd_mc_mean": mean,
            "tpd_target": -0.5 * p_t.reduced.delta_norm**2 * horizon,
            "tpd_se": math.sqrt(var / n_paths),
        })

    log_t = np.log(t_grid)
    slopes = {}
    for key in (f"width_{name}" for name in bounds):
        log_w = np.log([row[key] for row in rows])
        slopes[key] = float(np.polyfit(log_t, log_w, 1)[0]) if len(t_grid) > 1 else math.nan
    return ConvergenceStudy(rows=rows, slopes=slopes)


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: list[dict]
    slopes: dict[str, float]


def lemma_crosscheck(
    n_trials: int,
    seed: int,
    n_nodes: int = 64,
    n_mc: int = 10**5,
) -> list[dict]:
    """Closed form vs quadrature vs Monte Carlo on random half-space triples.

    Triples are drawn with ``||u|| <= 2``, ``0.05 <= ||v|| <= 2`` and
    ``|c| <= 3``; each row carries the three estimates, the closed-vs-
    quadrature gap, and the MC standard error.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if n_mc < 2:
        raise ValueError("n_mc must be at least 2 for a standard error")
    from .analytic import gaussian_halfspace_expectation

    draws = zip(*(uniform_pairs(seed, 0, n_trials, block) for block in range(3)))
    rows = []
    for trial, (a, b, c_pair) in enumerate(draws):
        angle_u = 2.0 * math.pi * float(a[0])
        angle_v = 2.0 * math.pi * float(a[1])
        u = 2.0 * float(b[0]) * np.array([math.cos(angle_u), math.sin(angle_u)])
        v = (0.05 + 1.95 * float(b[1])) * np.array([math.cos(angle_v), math.sin(angle_v)])
        c = -3.0 + 6.0 * float(c_pair[0])

        closed = gaussian_halfspace_expectation(u, v, c)
        quad = halfspace_quadrature(u, v, c, n_nodes=n_nodes)
        # a seed is one 64-bit key word, so the derived seeds wrap
        mc_mean, mc_se = halfspace_monte_carlo(u, v, c, n_mc, (seed + 1 + trial) % 2**64)
        rows.append({
            "u1": u[0], "u2": u[1], "v1": v[0], "v2": v[1], "c": c,
            "closed_form": closed,
            "quadrature": quad,
            "abs_gap": abs(closed - quad),
            "mc_mean": mc_mean,
            "mc_se": mc_se,
        })
    return rows


class _Grid:
    """One step count's prices, wealth and reductions on a chunk."""

    def __init__(self, params: MarketParams, strategy: strategies.PrudentStrategy,
                 n_steps: int, count: int):
        self.n_steps = n_steps
        self.times = np.linspace(0.0, params.t, n_steps + 1)
        self.scale = np.sqrt(params.t / n_steps)
        self.prices = PricePoint.at_start(count)
        self.replication = strategies.Replication(
            strategy, params, params.t * (1.0 - 1.0 / n_steps), count)
        self.low = None
        self.negative = 0

    def step(self, k: int, pairs: np.ndarray) -> None:
        t, t_next = self.times[k], self.times[k + 1]
        now = self.prices
        # an overflowing price is inf, which the replication step rejects;
        # overflowing wealth is inf, which the study rejects
        with np.errstate(over="ignore"):
            self.prices = step_prices(self.replication.params, Measure.PHYSICAL, t_next - t,
                                      pairs * self.scale, now)
            analytic = self.replication.step(float(t), float(t_next), (now.index, now.stock),
                                             (self.prices.index, self.prices.stock))
        self.negative += int((analytic < 0.0).sum())
        hedged = self.replication.hedged
        self.low = np.minimum(analytic if self.low is None else self.low, hedged)

    def summary(self) -> tuple:
        replication = self.replication
        prices = TerminalSample(self.prices.index, self.prices.stock)
        log_ratios = terminal_log_ratios(replication.params, prices, *replication.underlyings)
        terminal = strategies.terminal_wealth(replication.strategy, prices.index, log_ratios)
        return (
            np.abs(replication.hedged - terminal),
            self.negative + int((terminal < 0.0).sum()),
            int((self.low < 0.0).sum()),
            float(self.low.min()),
        )


def _hedge_chunk(config: ExperimentConfig, grids: list[int], first: int, count: int) -> dict:
    """Each step count's :meth:`_Grid.summary` on one chunk of paths."""
    strategy = strategies.build_two_sided(config.params, config.delta)
    runs = [_Grid(config.params, strategy, m, count) for m in grids]
    for k in range(grids[-1]):
        pairs = normal_pairs(config.seed, first, count, k)
        for run in runs:
            if k < run.n_steps:
                run.step(k, pairs)
    return {run.n_steps: run.summary() for run in runs}


def hedging_fidelity_study(
    config: ExperimentConfig,
    step_counts: Sequence[int] = (64, 128, 256, 512),
) -> list[dict]:
    """Discrete replication error of the band strategy per step count.

    For each grid resolution, hedges up to one step before expiry and
    reports terminal replication error statistics plus negative-wealth
    excursions of both tracks (the analytic track must never dip).

    Every grid is driven by common normals: step ``k`` of path ``p`` uses
    the pair at counter ``(seed, p, k)`` on each grid.  A path chunk
    draws each step's pairs once and moves every grid with more than
    ``k`` steps one step on (:func:`eihlab.market.step_prices`, then
    :meth:`eihlab.strategies.Replication.step`), keeping only each
    grid's current prices, its replication and the per-path reductions
    its row reads.  Rows come out in ``step_counts`` order and equal
    those of :func:`eihlab.market.simulate_paths` with ``Replication``
    stepped along each grid, per step count and whatever the chunk size.
    A price or price ratio that leaves the float range (0.0 or inf) is a
    ``ValueError`` of the replication step or, at expiry, of
    :func:`eihlab.strategies.terminal_log_ratios`; hedged wealth or a row
    value that does (a large ``r``) is a ``ValueError`` of the study.
    """
    grids = sorted({int(m) for m in step_counts})
    if not grids or grids[0] < 1:
        raise ValueError("step_counts must be positive and nonempty")
    results = _map_chunks(config.n_paths, config.n_workers, _hedge_chunk, config, grids)
    rows = []
    for n_steps in step_counts:
        parts = [r[int(n_steps)] for r in results]
        errors = np.concatenate([p[0] for p in parts])
        with np.errstate(over="ignore"):
            rms_error = float(np.sqrt(np.mean(errors * errors)))
        rows.append({
            "n_steps": int(n_steps),
            "median_abs_error": float(np.median(errors)),
            "rms_error": rms_error,
            "max_abs_error": float(errors.max()),
            "analytic_negative_count": sum(p[1] for p in parts),
            "hedged_negative_fraction": sum(p[2] for p in parts) / config.n_paths,
            "hedged_min_wealth": min(p[3] for p in parts),
        })
    if not all(math.isfinite(value) for row in rows for value in row.values()):
        raise ValueError("hedged wealth and its errors must be finite; "
                         "the market leaves the float range")
    return rows


# ---------------------------------------------------------------------------
# Serialization


def report_to_dict(config: ExperimentConfig, report: ExperimentReport) -> dict:
    """JSON-ready report; stable across reruns (no timing fields)."""
    params = config.params
    return {
        "schema_version": 1,
        "proposition": report.proposition,
        "market": {
            "mu_i": params.mu_i,
            "mu_s": params.mu_s,
            "sigma_i": list(params.sigma_i),
            "sigma_s": list(params.sigma_s),
            "r": params.r,
            "t": params.t,
        },
        "delta": config.delta,
        "eps": config.eps,
        "n_paths": config.n_paths,
        "seed": config.seed,
        "empirical_probability": report.empirical_probability,
        "wilson_ci_95": list(report.wilson_ci_95) if report.wilson_ci_95 else None,
        "theoretical_target": report.theoretical_target,
        "target_kind": report.target_kind,
        "dichotomy_violations": report.dichotomy_violations,
        "bound": None if report.bound is None else asdict(report.bound),
        "verdict": report.verdict,
        **({"extras": report.extras} if report.extras else {}),
    }
