"""Two-security geometric Brownian market and its exact samplers.

An index and a stock load on ``d >= 2`` independent Brownian drivers
through volatility vectors ``sigma_i`` and ``sigma_s``.  Because only
the span of the two vectors matters, everything is reduced to two
driving motions: the pair is written in coordinates of an orthonormal
basis of that span (the basis itself is not kept, nothing reads it).
Samplers then draw the exact lognormal solution (no Euler bias), one
normal pair per (path, step) from stream "v4" of the counter-based
generator in :mod:`eihlab.rng` (the path is the lane, the step the
block).  One expression, :func:`_log_levels`, turns draws into log
levels ``ln I`` and ``ln S`` over a time span: the terminal sampler
takes it once over the horizon, and the price stream once per step.
Both give log levels, :class:`TerminalSample`, checked or read by
asking ``np.exp`` for their prices, so that log ratios are taken from
the levels; prices are formed only where they are read, with the bits
``np.exp`` gives them.

:class:`MarketParams` is the one home of the pair's geometry: its
norms, inner products, the 2-d coordinates ``bars`` and their spread
norm ``delta_norm`` are computed at construction, in one pass, and
stored as plain attributes.  The bond is the stock of zero volatility,
so its spread against the index is ``norm_i`` and it needs no
coordinates of its own.  The bounds, builders, events and samplers
read them; nothing is computed lazily or at import.

Paths have one type, :class:`PathBatch`: the times and the price
grids, not the increments that drove them.  A single path is a
one-path batch, and because draws depend only on (seed, path, step) it
equals the matching row of any larger batch.  A batch moves through
time by one function, :func:`step_prices`, which :func:`price_steps`
drives from the stream's draws on the uniform grid: that stream is the
one rule from draws to steps, and at one step it is the terminal
sampler, bit for bit.  :func:`simulate_paths` records it as the
columns of column-major price grids, and a caller that needs only the
current prices reads it and keeps no grid.  Draws depend on the step,
not on the grid, so one stream can drive several grids at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import rng

_COLLINEAR_TOL = 1e-12


class Measure(enum.Enum):
    """Drift convention for sampling: real-world or risk-neutral."""

    PHYSICAL = "physical"
    RISK_NEUTRAL = "risk_neutral"


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float, copy=True).reshape(-1)
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _norm(v: np.ndarray) -> float:
    # the expression ``np.linalg.norm`` evaluates for a 1-D real vector
    return math.sqrt(float(v.dot(v)))


def _check_norm(what: str, value: float) -> None:
    """The one rule of a norm, computed or given: finite and positive."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be finite and positive, got {value!r}")


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Model parameters. Initial prices are pinned to I0 = S0 = 1.

    The constructor also stores the pair's geometry as plain attributes,
    one float per quantity, which drift gaps, drift bounds and pricing
    share: ``norm_i``, ``norm_s``, ``norm_i_sq`` = sigma_i . sigma_i,
    ``cross`` = sigma_s . sigma_i, ``bars``, the pair in coordinates of an
    orthonormal basis of its span (a read-only 2 x 2 array, sigma_i's row
    then sigma_s's), and ``delta_norm`` = ||bars[1] - bars[0]||, the
    spread norm that pricing, events, samplers and drift bounds read.
    ``e1`` points along ``sigma_i``; ``e2`` along the remainder of
    ``sigma_s`` after removing its ``e1`` component.  When the two
    vectors are (numerically) collinear, the remainder's norm at most
    1e-12 of ``norm_s``, the stock sits on the first axis.  Norms and the
    inner product are preserved up to rounding.  The bond is the stock of
    zero volatility: its spread norm against the index is ``norm_i``, the
    float the coordinates ``([norm_i, 0], [0, 0])`` would give.
    """

    mu_i: float
    mu_s: float
    sigma_i: np.ndarray
    sigma_s: np.ndarray
    r: float
    t: float

    I0 = 1.0
    S0 = 1.0

    def __post_init__(self):
        sigma_i, sigma_s = _as_vector(self.sigma_i, "sigma_i"), _as_vector(self.sigma_s, "sigma_s")
        object.__setattr__(self, "sigma_i", sigma_i)
        object.__setattr__(self, "sigma_s", sigma_s)
        for name in ("mu_i", "mu_s", "r", "t"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.t <= 0.0:
            raise ValueError("horizon t must be positive")
        if sigma_i.shape != sigma_s.shape:
            raise ValueError("sigma_i and sigma_s must have equal length")
        if self.d < 2:
            raise ValueError("at least two Brownian drivers are required (d >= 2)")
        # The geometry, in one pass.  A norm that overflows or underflows is
        # rejected here, without a warning, in this order: sigma_i's,
        # sigma_s's, the spread of the bars.
        with np.errstate(all="ignore"):
            norm_i_sq = float(sigma_i.dot(sigma_i))
            norm_i, norm_s = math.sqrt(norm_i_sq), _norm(sigma_s)
            _check_norm("the norm of sigma_i", norm_i)
            _check_norm("the norm of sigma_s", norm_s)
            e1 = sigma_i / norm_i
            proj = float(sigma_s.dot(e1))
            rem_norm = _norm(sigma_s - proj * e1)
            cross = float(sigma_s.dot(sigma_i))
            if rem_norm <= _COLLINEAR_TOL * norm_s:
                # collinear: use the signed norm so that bitwise-equal sigma
                # vectors reduce to bitwise-equal coordinates
                s_bar = [math.copysign(norm_s, proj), 0.0]
            else:
                s_bar = [proj, rem_norm]
            bars = np.array([[norm_i, 0.0], s_bar])
            bars.flags.writeable = False
            delta_norm = _norm(bars[1] - bars[0])
            _check_norm("the norm of sigma_s - sigma_i", delta_norm)
        vars(self).update(norm_i=norm_i, norm_s=norm_s, norm_i_sq=norm_i_sq, cross=cross,
                          bars=bars, delta_norm=delta_norm)

    @property
    def d(self) -> int:
        return self.sigma_i.size


def reduce_dimension(params: MarketParams) -> float:
    """The spread norm of the pair's coordinates, :attr:`MarketParams.delta_norm`."""
    return params.delta_norm


def drift_pair(params: MarketParams, measure: Measure) -> tuple[float, float]:
    """Appreciation rates of (index, stock) under the given measure."""
    if measure is Measure.RISK_NEUTRAL:
        return params.r, params.r
    return params.mu_i, params.mu_s


class TerminalSample(NamedTuple):
    """Log levels ``ln I`` and ``ln S`` of a batch of paths at one time:
    the terminal sampler's at the horizon, the price stream's at the end
    of each step.

    The prices ``index`` and ``stock`` are ``np.exp`` of the levels,
    formed on each read; the log ratios that payoffs and events compare
    are taken from the levels and never from the prices.
    """

    log_index: np.ndarray
    log_stock: np.ndarray

    @property
    def index(self) -> np.ndarray:
        return np.exp(self.log_index)

    @property
    def stock(self) -> np.ndarray:
        return np.exp(self.log_stock)


class PathBatch(NamedTuple):
    """Vectorized paths: times (m+1,) and prices (n, m+1).

    The price grids are column-major (Fortran order): the same shapes and
    values as row-major grids, laid out so that the prices of all paths
    at one time are contiguous, as :func:`simulate_paths` writes them,
    one column per step.
    """

    times: np.ndarray
    index_values: np.ndarray
    stock_values: np.ndarray


def simulate_terminal(
    params: MarketParams,
    measure: Measure,
    n_paths: int,
    seed: int,
    *,
    first_path: int = 0,
) -> TerminalSample:
    """Draw (ln I_T, ln S_T) pairs exactly from their joint normal law.

    Path ``k`` uses the normal pair of lane ``first_path + k`` at block 0
    under ``seed`` (:func:`eihlab.rng.normal_pairs`), so results are
    reproducible regardless of batching.  A log level whose price leaves
    the float range (0.0 or inf) is a ``ValueError``;
    :func:`_in_exp_range` checks the levels from the prices of their
    extremes alone, so no batch of prices is formed here.
    """
    rng.check_paths(n_paths)
    xi = rng.normal_pairs(seed, first_path, n_paths)
    log_levels = _log_levels(params, measure, params.t, np.sqrt(params.t), xi)
    return TerminalSample(*_in_float_range(*log_levels, rule=_in_exp_range))


def _log_levels(params: MarketParams, measure: Measure, dt: float, scale: float,
                xi: np.ndarray) -> list[np.ndarray]:
    """The package's one lognormal expression: the changes of ``ln I`` and
    ``ln S`` over a span ``dt`` whose driver increments are ``scale * xi``,
    for the ``(n, 2)`` normal pairs ``xi``.

    Each is ``(mu - |sigma_bar|^2 / 2) dt + scale (xi_0 sigma_bar_0 +
    xi_1 sigma_bar_1)``, worked in place with the bits of that
    expression.  The sum is elementwise, not ``xi @ sigma_bar``: a matrix
    product may round a row differently depending on how many rows it is
    given.
    """
    levels = []
    for mu, bar in zip(drift_pair(params, measure), params.bars):
        level = xi[:, 0] * bar[0]
        level += xi[:, 1] * bar[1]
        level *= scale
        level += (mu - 0.5 * _norm(bar)**2) * dt
        levels.append(level)
    return levels


def _finite_positive(x: np.ndarray) -> bool:
    """The one float-range rule of prices and their ratios: every element
    is finite and positive (true of an empty array)."""
    # a NaN is the minimum, and fails the first comparison
    return x.size == 0 or (0.0 < x.min() and x.max() < math.inf)


def _in_exp_range(x: np.ndarray) -> bool:
    """The float-range rule of log levels and log ratios: every element's
    ``np.exp`` is finite and positive (true of an empty array).  ``np.exp``
    is monotone, so its prices at the two extremes decide."""
    if x.size == 0:
        return True
    with np.errstate(over="ignore", under="ignore"):
        low, high = np.exp([x.min(), x.max()])
    # a NaN is the minimum, and its price NaN fails the first comparison
    return 0.0 < low and high < math.inf


def _in_float_range(*arrays: np.ndarray, rule=_finite_positive) -> tuple[np.ndarray, ...]:
    """The arrays, if each follows ``rule``: prices finite and positive, or
    with :func:`_in_exp_range`, log levels whose prices are."""
    if not all(map(rule, arrays)):
        raise ValueError("sampled prices must be finite and strictly positive; "
                         "the market leaves the float range")
    return arrays


def step_prices(
    params: MarketParams,
    measure: Measure,
    dt: float,
    scale: float,
    xi: np.ndarray,
    start: TerminalSample,
) -> TerminalSample:
    """Exact lognormal step of a path batch over ``dt``.

    ``scale * xi`` holds each path's ``(n, 2)`` driver increment over the
    step.  Each new log level is :func:`_log_levels` plus the level at
    ``start``; the price, formed where it is read, is its exponential.
    This is the package's one price step, which :func:`price_steps`
    takes; from zero levels over the horizon, with ``scale =
    sqrt(t)``, it is :func:`simulate_terminal` bit for bit.
    """
    log_index, log_stock = _log_levels(params, measure, dt, scale, xi)
    log_index += start.log_index
    log_stock += start.log_stock
    return TerminalSample(log_index, log_stock)


def price_steps(
    params: MarketParams,
    measure: Measure,
    n_steps: int,
    n_paths: int,
    seed: int,
    *,
    first_path: int = 0,
) -> Iterator[tuple[float, float, TerminalSample]]:
    """The log-level stream of a batch of paths on the uniform grid.

    Yields ``(t, t_next, levels)`` for each step of ``linspace(0, t,
    n_steps + 1)``: ``levels`` is :func:`step_prices` of the last levels
    (time 0's zeros at first), driven by the normal pairs of lanes
    ``first_path + k`` at block ``step`` under ``seed``
    (:func:`eihlab.rng.normal_pairs`) with ``scale = sqrt(t / n_steps)``,
    so a one-path stream with ``first_path=k`` equals path ``k`` of any
    batch that holds it, and a one-step stream equals
    :func:`simulate_terminal`.  This is the package's one rule from draws
    to steps; its reader forms the prices.
    ``n_steps`` and ``n_paths`` (against the stream's lanes,
    :func:`eihlab.rng.check_paths`) are checked on the call, the seed and
    ``first_path`` by the first step's draw.  A level whose price leaves
    the float range is yielded, without a warning, for the reader to
    reject.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    rng.check_paths(n_paths)
    times, scale = np.linspace(0.0, params.t, n_steps + 1), np.sqrt(params.t / n_steps)

    def steps() -> Iterator[tuple[float, float, TerminalSample]]:
        levels = TerminalSample(np.zeros(n_paths), np.zeros(n_paths))
        for step in range(n_steps):
            # the error state covers the step only (one that spanned the
            # yield would hold in the reader's code); the unnamed draws are
            # freed before the yield
            with np.errstate(all="ignore"):
                levels = step_prices(params, measure, times[step + 1] - times[step], scale,
                                     rng.normal_pairs(seed, first_path, n_paths, step), levels)
            yield float(times[step]), float(times[step + 1]), levels

    return steps()


def simulate_paths(
    params: MarketParams,
    measure: Measure,
    n_steps: int,
    n_paths: int,
    seed: int,
    *,
    first_path: int = 0,
) -> PathBatch:
    """The :func:`price_steps` stream recorded as a batch of paths.

    Column ``k + 1`` of each column-major grid holds the prices of the
    log levels at the end of step ``k``.  A price that leaves the float
    range (0.0 or inf) is a ``ValueError``.
    """
    steps = price_steps(params, measure, n_steps, n_paths, seed, first_path=first_path)
    times = np.zeros(n_steps + 1)
    shape = (n_paths, n_steps + 1)
    index, stock = np.empty(shape, order="F"), np.empty(shape, order="F")
    index[:, 0] = stock[:, 0] = 1.0
    with np.errstate(over="ignore", under="ignore"):
        for k, (_, t_next, levels) in enumerate(steps, 1):
            times[k], index[:, k], stock[:, k] = t_next, levels.index, levels.stock
    return PathBatch(times, *_in_float_range(index, stock))
