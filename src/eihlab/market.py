"""Two-security geometric Brownian market and its exact samplers.

An index and a stock load on ``d >= 2`` independent Brownian drivers
through volatility vectors ``sigma_i`` and ``sigma_s``.  Because only
the span of the two vectors matters, everything is reduced to two
driving motions: the pair is written in coordinates of an orthonormal
basis of that span (the basis itself is not kept, nothing reads it).
Samplers then draw the exact lognormal solution (no Euler bias), one
normal pair per (path, step) through the counter-based generator in
:mod:`eihlab.rng`.  The terminal sampler returns the log levels
``ln I_T`` and ``ln S_T``, checked by asking ``np.exp`` for the prices
of their extremes, so that log ratios are taken from the levels; its
prices are formed only where they are read, with the bits ``np.exp``
gives them.

:class:`MarketParams` is the one home of the pair's geometry: its
norms, inner products and 2-d reduction are computed at construction,
in one pass, and stored as plain attributes.  The bond is the stock of
zero volatility, so its spread against the index is ``norm_i`` and it
needs no reduction of its own.  The bounds, builders, events and
samplers read them; nothing is computed lazily or at import.

Paths have one type, :class:`PathBatch`: the times and the price
grids, not the increments that drove them.  A single path is a
one-path batch, and because draws depend only on (seed, path, step) it
equals the matching row of any larger batch.  A batch moves through
time by one function, :func:`step_prices`, which :func:`price_steps`
drives from the counter draws on the uniform grid: that stream is the
one rule from draws to steps.  :func:`simulate_paths` records it as the
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


def _check_norm(name: str, norm: float) -> None:
    if not 0.0 < norm < math.inf:
        raise ValueError(f"the norm of {name} must be finite and positive, got {norm!r}")


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Model parameters. Initial prices are pinned to I0 = S0 = 1.

    The constructor also stores the pair's geometry as plain attributes:
    ``norm_i``, ``norm_s``, ``norm_i_sq`` = sigma_i . sigma_i, ``cross``
    = sigma_s . sigma_i, ``spread_norm`` = ||sigma_s - sigma_i|| and
    ``reduced``, the pair in coordinates of an orthonormal basis of its
    span.  ``e1`` points along ``sigma_i``; ``e2`` along the remainder
    of ``sigma_s`` after removing its ``e1`` component.  When the two
    vectors are (numerically) collinear the remainder vanishes and the
    stock sits on the first axis.  Norms and the inner product of the
    pair are preserved up to rounding.  The bond is the stock of zero
    volatility: its spread norm against the index is ``norm_i``, the
    float the reduced pair ``([norm_i, 0], [0, 0])`` would give.
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
        # The geometry, in one pass.  Two look-alike pairs differ in the
        # last bit on many markets and are kept apart, each the exact float
        # its readers always used: the driver-space ``spread_norm`` (drift
        # bounds) against ``reduced.delta_norm`` (pricing, events,
        # samplers), and ``norm_i_sq`` (drift gaps) against ``norm_i**2``
        # (bounds).  A norm that overflows or underflows is rejected here,
        # without a warning: sigma_i's, then sigma_s's, then the spread's,
        # which the reduced pair checks.
        with np.errstate(all="ignore"):
            norm_i_sq = float(sigma_i.dot(sigma_i))
            norm_i, norm_s = math.sqrt(norm_i_sq), _norm(sigma_s)
            _check_norm("sigma_i", norm_i)
            _check_norm("sigma_s", norm_s)
            e1 = sigma_i / norm_i
            proj = float(sigma_s.dot(e1))
            rem_norm = _norm(sigma_s - proj * e1)
            spread_norm = _norm(sigma_s - sigma_i)
            cross = float(sigma_s.dot(sigma_i))
        if rem_norm <= _COLLINEAR_TOL * max(1.0, norm_s):
            # collinear: use the signed norm so that bitwise-equal sigma
            # vectors reduce to bitwise-equal coordinates
            s_bar = [math.copysign(norm_s, proj), 0.0]
        else:
            s_bar = [proj, rem_norm]
        vars(self).update(norm_i=norm_i, norm_s=norm_s, norm_i_sq=norm_i_sq, cross=cross,
                          spread_norm=spread_norm, reduced=_reduced([norm_i, 0.0], s_bar))

    @property
    def d(self) -> int:
        return self.sigma_i.size


@dataclass(frozen=True, eq=False)
class ReducedParams:
    """Volatility pair expressed in an orthonormal basis of its span.

    The constructor stores ``delta_norm``, the norm of the volatility
    spread and the lognormal ratio volatility, and rejects a pair whose
    spread norm is not finite and positive (equal or NaN bars).
    """

    sigma_i_bar: np.ndarray
    sigma_s_bar: np.ndarray

    def __post_init__(self):
        with np.errstate(all="ignore"):
            delta_norm = _norm(self.sigma_s_bar - self.sigma_i_bar)
        _check_norm("sigma_s - sigma_i", delta_norm)
        object.__setattr__(self, "delta_norm", delta_norm)


def _reduced(sigma_i_bar: list, sigma_s_bar: list) -> ReducedParams:
    """The pair of coordinate lists as read-only rows of one array."""
    bars = np.array([sigma_i_bar, sigma_s_bar])
    bars.flags.writeable = False
    return ReducedParams(sigma_i_bar=bars[0], sigma_s_bar=bars[1])


def reduce_dimension(params: MarketParams) -> ReducedParams:
    """The 2-d reduction of the pair, :attr:`MarketParams.reduced`."""
    return params.reduced


def drift_pair(params: MarketParams, measure: Measure) -> tuple[float, float]:
    """Appreciation rates of (index, stock) under the given measure."""
    if measure is Measure.RISK_NEUTRAL:
        return params.r, params.r
    return params.mu_i, params.mu_s


class TerminalSample(NamedTuple):
    """Terminal log levels ``ln I_T`` and ``ln S_T`` for a batch of paths.

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
    at one time are contiguous, as the per-step wealth loop reads them.
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

    Path ``k`` uses the normal pair at counter ``(seed, first_path + k)``,
    so results are reproducible regardless of batching.  A log level
    whose price leaves the float range (0.0 or inf) is a ``ValueError``;
    :func:`_in_exp_range` checks the levels from the prices of their
    extremes alone, so no batch of prices is formed here.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    reduced = params.reduced
    mu_i, mu_s = drift_pair(params, measure)
    xi = rng.normal_pairs(seed, first_path, n_paths)
    sqrt_t = np.sqrt(params.t)
    # elementwise, not ``xi @ sigma_bar``: a matrix product may round a
    # row differently depending on how many rows it is given
    w_i = xi[:, 0] * reduced.sigma_i_bar[0] + xi[:, 1] * reduced.sigma_i_bar[1]
    w_s = xi[:, 0] * reduced.sigma_s_bar[0] + xi[:, 1] * reduced.sigma_s_bar[1]
    log_i = (mu_i - 0.5 * _norm(reduced.sigma_i_bar)**2) * params.t + sqrt_t * w_i
    log_s = (mu_s - 0.5 * _norm(reduced.sigma_s_bar)**2) * params.t + sqrt_t * w_s
    return TerminalSample(*_in_float_range(log_i, log_s, rule=_in_exp_range))


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


class PricePoint(NamedTuple):
    """A path batch at one time: prices and their log levels, shape (n,)."""

    index: np.ndarray
    stock: np.ndarray
    log_index: np.ndarray
    log_stock: np.ndarray

    @classmethod
    def at_start(cls, n_paths: int) -> "PricePoint":
        """Time 0: both prices at 1, both log levels at 0."""
        ones, zeros = np.ones(n_paths), np.zeros(n_paths)
        return cls(ones, ones, zeros, zeros)


def step_prices(
    params: MarketParams,
    measure: Measure,
    dt: float,
    increments: np.ndarray,
    start: PricePoint,
) -> PricePoint:
    """Exact lognormal step of a path batch over ``dt``.

    ``increments`` holds each path's ``(n, 2)`` driver increment over the
    step.  Each new log level is the diffusion ``increments @ sigma_bar``
    plus the step's drift ``(mu - |sigma_bar|^2 / 2) dt`` plus the level
    at ``start``, added in that order; the price is its exponential.  A
    lone path is multiplied as a two-row stack, so a path's floats do not
    depend on the size of its batch.  This is the package's one price
    step, which :func:`price_steps` takes.
    """
    reduced = params.reduced
    mu_i, mu_s = drift_pair(params, measure)
    n = increments.shape[0]
    if n == 1:
        # a one-row product rounds differently from the same row in a
        # batch; a two-row one rounds as the batch does
        increments = np.vstack([increments, increments])

    def level(mu: float, sigma_bar: np.ndarray, previous: np.ndarray) -> np.ndarray:
        out = (increments @ sigma_bar)[:n]
        out += (mu - 0.5 * float(sigma_bar @ sigma_bar)) * dt
        out += previous
        return out

    log_index = level(mu_i, reduced.sigma_i_bar, start.log_index)
    log_stock = level(mu_s, reduced.sigma_s_bar, start.log_stock)
    return PricePoint(np.exp(log_index), np.exp(log_stock), log_index, log_stock)


def price_steps(
    params: MarketParams,
    measure: Measure,
    n_steps: int,
    n_paths: int,
    seed: int,
    *,
    first_path: int = 0,
) -> Iterator[tuple[float, float, PricePoint]]:
    """The price stream of a batch of paths on the uniform grid.

    Yields ``(t, t_next, point)`` for each step of ``linspace(0, t,
    n_steps + 1)``: ``point`` is :func:`step_prices` of the last point
    (time 0's prices at first), driven by the normal pairs at counters
    ``(seed, first_path + k, step)`` scaled by ``sqrt(t / n_steps)``, so
    a one-path stream with ``first_path=k`` equals path ``k`` of any
    batch that holds it.  This is the package's one rule from draws to
    steps.
    ``n_steps`` and ``n_paths`` are checked on the call, the seed and the
    lanes by the first step's draw.  A price that leaves the float range
    is yielded as 0.0 or inf, without a warning, for the reader to reject.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    times, scale = np.linspace(0.0, params.t, n_steps + 1), np.sqrt(params.t / n_steps)

    def steps() -> Iterator[tuple[float, float, PricePoint]]:
        point = PricePoint.at_start(n_paths)
        for step in range(n_steps):
            # the error state covers the step only (one that spanned the
            # yield would hold in the reader's code); the unnamed draws are
            # freed before the yield
            with np.errstate(all="ignore"):
                point = step_prices(params, measure, times[step + 1] - times[step],
                                    rng.normal_pairs(seed, first_path, n_paths, step) * scale,
                                    point)
            yield float(times[step]), float(times[step + 1]), point

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

    Column ``k + 1`` of each column-major grid holds the prices at the
    end of step ``k``.  A price that leaves the float range (0.0 or inf)
    is a ``ValueError``.
    """
    steps = price_steps(params, measure, n_steps, n_paths, seed, first_path=first_path)
    times = np.zeros(n_steps + 1)
    shape = (n_paths, n_steps + 1)
    index, stock = np.empty(shape, order="F"), np.empty(shape, order="F")
    index[:, 0] = stock[:, 0] = 1.0
    for k, (_, t_next, point) in enumerate(steps, 1):
        times[k], index[:, k], stock[:, k] = t_next, point.index, point.stock
    return PathBatch(times, *_in_float_range(index, stock))
