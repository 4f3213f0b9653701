import copy
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from eihlab import market
from eihlab.market import (MarketParams, Measure, PathBatch, TerminalSample, _in_float_range,
                           drift_pair, step_prices)
from eihlab.strategies import (PrudentStrategy, replicate, self_financing, terminal_log_ratios,
                               terminal_wealth)

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")

# one line per acceptance criterion, replayed after the run summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Reference parameter set used throughout: a 10% / 15.8% vol pair on two
# drivers with a 10-year horizon.
SET_A = dict(
    mu_i=0.06,
    mu_s=0.05,
    sigma_i=(0.15, 0.05),
    sigma_s=(0.25, -0.10),
    r=0.02,
    t=10.0,
)


@pytest.fixture
def set_a() -> MarketParams:
    return MarketParams(**SET_A)


def make_degenerate_equal_sigmas(params: MarketParams) -> MarketParams:
    """Test-only hook: force sigma_s = sigma_i, bypassing the constructor's
    guards (the public path rejects equal vectors and equal bars).  The
    copy gets the equal pair's geometry, the floats the constructor
    computes for it, set directly."""
    clone = copy.copy(params)
    bars = np.array([params.bars[0], params.bars[0]])
    bars.flags.writeable = False
    vars(clone).update(mu_s=params.mu_i, sigma_s=params.sigma_i.copy(), norm_s=params.norm_i,
                       cross=params.norm_i_sq, bars=bars, delta_norm=0.0)
    return clone


def bond_delta_norm(params: MarketParams) -> float:
    """The spread norm of the bond's own coordinates ``([norm_i, 0], [0,
    0])`` (the bond is the stock of zero volatility), by the constructor's
    expression for ``delta_norm``."""
    bars = np.array([[params.norm_i, 0.0], [0.0, 0.0]])
    with np.errstate(all="ignore"):
        return market._norm(bars[1] - bars[0])


def random_market(rng: np.random.Generator, d: int | None = None) -> MarketParams:
    """Valid random parameter set for property-style loops."""
    d = d or int(rng.integers(2, 5))
    while True:
        sigma_i = rng.uniform(-0.5, 0.5, size=d)
        sigma_s = rng.uniform(-0.5, 0.5, size=d)
        if (np.linalg.norm(sigma_i) > 1e-3 and np.linalg.norm(sigma_s) > 1e-3
                and np.linalg.norm(sigma_i - sigma_s) > 1e-3):
            break
    return MarketParams(
        mu_i=rng.uniform(-0.1, 0.2),
        mu_s=rng.uniform(-0.1, 0.2),
        sigma_i=sigma_i,
        sigma_s=sigma_s,
        r=rng.uniform(0.0, 0.1),
        t=rng.uniform(0.5, 100.0),
    )


def log_ratio_law(params: MarketParams, measure: Measure = Measure.PHYSICAL) -> tuple[float, float]:
    """Mean and standard deviation of the exact normal law of ln(S_T / I_T)."""
    mu_i, mu_s = drift_pair(params, measure)
    norm_i_sq = np.linalg.norm(params.bars[0])**2
    norm_s_sq = np.linalg.norm(params.bars[1])**2
    mean = (mu_s - mu_i) * params.t + 0.5 * (norm_i_sq - norm_s_sq) * params.t
    std = params.delta_norm * np.sqrt(params.t)
    return float(mean), float(std)


def paths_from_increments(
    params: MarketParams,
    measure: Measure,
    times: np.ndarray,
    increments: np.ndarray,
) -> PathBatch:
    """Build paths by exact lognormal stepping from given 2-d increments.

    ``increments`` has shape ``(n, len(times) - 1, 2)``: ``increments[p,
    k]`` is path ``p``'s driver increment over ``(times[k], times[k+1])``.
    Zeros yield the deterministic drift-only path.  Column ``k + 1`` of
    each grid holds the prices of :func:`step_prices` of the levels of
    column ``k``, the increments passed as ``xi`` with ``scale = 1.0``.
    A price that leaves the float range (0.0 or inf) is a ``ValueError``.
    """
    times = np.asarray(times, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if (times.ndim != 1 or not times.size or times[0] != 0.0 or not np.isfinite(times).all()
            or not (np.diff(times) > 0.0).all()):
        raise ValueError("times must increase strictly from 0")
    if increments.ndim != 3 or increments.shape[1:] != (times.size - 1, 2):
        raise ValueError(f"increments must have shape (n_paths, {times.size - 1}, 2), "
                         f"got {increments.shape}")
    if not np.isfinite(increments).all():
        raise ValueError("increments must be finite")
    n = increments.shape[0]
    index, stock = np.empty((n, times.size), order="F"), np.empty((n, times.size), order="F")
    index[:, 0] = stock[:, 0] = 1.0
    levels = TerminalSample(np.zeros(n), np.zeros(n))
    with np.errstate(all="ignore"):
        for k in range(times.size - 1):
            levels = step_prices(params, measure, times[k + 1] - times[k], 1.0, increments[:, k],
                                 levels)
            index[:, k + 1], stock[:, k + 1] = levels.index, levels.stock
    return PathBatch(times, *_in_float_range(index, stock))


# The wealth recorder: the ``==`` oracle that the streamed hedging study
# and the replication tests are checked against.


@dataclass(frozen=True)
class WealthTrack:
    """Strategy wealth on a path batch: (n_paths, n_times) analytic and hedged."""

    times: np.ndarray
    analytic: np.ndarray
    hedged: np.ndarray


def wealth_tracks(strategy: PrudentStrategy, params: MarketParams, batch: PathBatch) -> WealthTrack:
    """Analytic wealth and its discrete self-financing replication.

    The analytic track sums claim values at each grid time and is the
    exact indicator payoff at the horizon; the hedged track rebalances
    to the units of :func:`replicate` at every grid time before the
    horizon and steps with :func:`self_financing`.  Both tracks are
    ``(n_paths, n_times)`` arrays in column-major order, so that a time
    slice is contiguous.
    """
    times = batch.times
    index, stock = batch.index_values, batch.stock_values
    n, m_plus_1 = index.shape
    analytic = np.empty((n, m_plus_1), order="F")
    hedged = np.empty((n, m_plus_1), order="F")
    for k in range(m_plus_1 - 1):
        t, t_next = float(times[k]), float(times[k + 1])
        now, after = (index[:, k], stock[:, k]), (index[:, k + 1], stock[:, k + 1])
        analytic[:, k], held = replicate(strategy, params, t, now)
        if k == 0:
            hedged[:, 0] = analytic[:, 0]
        hedged[:, k + 1] = self_financing(hedged[:, k], held, now, after, params.r * (t_next - t))
    # a grid keeps prices only; the terminal sample is their log levels
    # (a price of 0.0 is a level of -inf, which the log ratios reject)
    with np.errstate(divide="ignore"):
        terminal = TerminalSample(np.log(index[:, -1]), np.log(stock[:, -1]))
    log_ratios = terminal_log_ratios(params, terminal,
                                     *{comp.underlying for comp in strategy.components})
    analytic[:, -1] = terminal_wealth(strategy, index[:, -1], log_ratios)
    return WealthTrack(times=times, analytic=analytic, hedged=hedged)
