"""Two-security geometric Brownian market and its exact samplers.

An index and a stock load on ``d >= 2`` independent Brownian drivers
through volatility vectors ``sigma_i`` and ``sigma_s``.  Because only
the span of the two vectors matters, everything is reduced to two
driving motions: the pair is written in coordinates of an orthonormal
basis of that span (the basis itself is not kept, nothing reads it).
Samplers then draw the exact lognormal solution (no Euler bias), one
normal pair per (path, step) through the counter-based generator in
:mod:`eihlab.rng`.

:class:`MarketParams` is the one home of the pair's geometry: its
norms, inner products and both reductions are computed once per
instance and read by the bounds, builders, events and samplers.

Paths have one type, :class:`PathBatch`: the times and the price
grids, not the increments that drove them.  A single path is a
one-path batch, and because draws depend only on (seed, path, step) it
equals the matching row of any larger batch.  A batch moves through
time by one function, :func:`step_prices`: :func:`paths_from_increments`
records its steps as the columns of column-major price grids, and a
caller that needs only the current prices streams them and keeps no
grid.  Draws depend on the step, not on the grid, so one draw of a
step's normals can drive several grids at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng

_COLLINEAR_TOL = 1e-12


class Measure(enum.Enum):
    """Drift convention for sampling: real-world or risk-neutral."""

    PHYSICAL = "physical"
    RISK_NEUTRAL = "risk_neutral"


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float, copy=True).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _norm(v: np.ndarray) -> float:
    # the expression ``np.linalg.norm`` evaluates for a 1-D real vector
    return math.sqrt(float(v.dot(v)))


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Model parameters. Initial prices are pinned to I0 = S0 = 1."""

    mu_i: float
    mu_s: float
    sigma_i: np.ndarray
    sigma_s: np.ndarray
    r: float
    t: float

    I0 = 1.0
    S0 = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sigma_i", _as_vector(self.sigma_i, "sigma_i"))
        object.__setattr__(self, "sigma_s", _as_vector(self.sigma_s, "sigma_s"))
        for name in ("mu_i", "mu_s", "r", "t"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.t <= 0.0:
            raise ValueError("horizon t must be positive")
        if self.sigma_i.shape != self.sigma_s.shape:
            raise ValueError("sigma_i and sigma_s must have equal length")
        if self.d < 2:
            raise ValueError("at least two Brownian drivers are required (d >= 2)")
        # the norms that pricing, bounds and samplers divide by; a norm
        # that overflows or underflows is rejected here, without a warning
        with np.errstate(all="ignore"):
            norms = (("sigma_i", self.norm_i), ("sigma_s", self.norm_s),
                     ("sigma_s - sigma_i", self.reduced.delta_norm))
        for name, norm in norms:
            if not 0.0 < norm < math.inf:
                raise ValueError(f"the norm of {name} must be finite and positive, got {norm!r}")

    @property
    def d(self) -> int:
        return self.sigma_i.size

    # The pair's geometry, computed on first use.  Two look-alike pairs
    # differ in the last bit on many markets and are kept apart, each the
    # exact float its readers always used: the driver-space ``spread_norm``
    # (drift bounds) against ``reduced.delta_norm`` (pricing, events,
    # samplers), and ``norm_i_sq`` = sigma_i . sigma_i (drift gaps) against
    # ``norm_i**2`` (bounds).  ``cross`` is sigma_s . sigma_i.

    @cached_property
    def norm_i(self) -> float:
        return _norm(self.sigma_i)

    @cached_property
    def norm_s(self) -> float:
        return _norm(self.sigma_s)

    @cached_property
    def spread_norm(self) -> float:
        return _norm(self.sigma_s - self.sigma_i)

    @cached_property
    def norm_i_sq(self) -> float:
        return float(self.sigma_i @ self.sigma_i)

    @cached_property
    def cross(self) -> float:
        return float(self.sigma_s @ self.sigma_i)

    @cached_property
    def reduced(self) -> ReducedParams:
        """The pair in coordinates of an orthonormal basis of its span.

        ``e1`` points along ``sigma_i``; ``e2`` along the remainder of
        ``sigma_s`` after removing its ``e1`` component.  When the two
        vectors are (numerically) collinear the remainder vanishes and
        the stock sits on the first axis.  Norms and the inner product
        of the pair are preserved up to rounding.
        """
        e1 = self.sigma_i / self.norm_i
        proj = float(self.sigma_s @ e1)
        rem_norm = _norm(self.sigma_s - proj * e1)
        if rem_norm <= _COLLINEAR_TOL * max(1.0, self.norm_s):
            # collinear: use the signed norm so that bitwise-equal sigma
            # vectors reduce to bitwise-equal coordinates
            s_bar = [math.copysign(self.norm_s, proj), 0.0]
        else:
            s_bar = [proj, rem_norm]
        return _reduced([self.norm_i, 0.0], s_bar)

    @cached_property
    def reduced_vs_bond(self) -> ReducedParams:
        """Reduced pair for comparing the index with the zero-coupon bond.

        The bond has no Brownian exposure, so the pair is (sigma_i, 0)
        and the ratio volatility equals the index volatility norm.
        """
        return _reduced([self.norm_i, 0.0], [0.0, 0.0])


@dataclass(frozen=True, eq=False)
class ReducedParams:
    """Volatility pair expressed in an orthonormal basis of its span."""

    sigma_i_bar: np.ndarray
    sigma_s_bar: np.ndarray

    @cached_property
    def delta_norm(self) -> float:
        """Norm of the volatility spread, the lognormal ratio volatility."""
        return _norm(self.sigma_s_bar - self.sigma_i_bar)

    @cached_property
    def norm_i(self) -> float:
        return _norm(self.sigma_i_bar)

    @cached_property
    def norm_s(self) -> float:
        return _norm(self.sigma_s_bar)


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
    """Terminal prices for a batch of paths."""

    index: np.ndarray
    stock: np.ndarray


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
    """Draw (I_T, S_T) pairs exactly from their joint lognormal law.

    Path ``k`` uses the normal pair at counter ``(seed, first_path + k)``,
    so results are reproducible regardless of batching.  A price that
    leaves the float range (0.0 or inf) is a ``ValueError``.
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
    log_i = (mu_i - 0.5 * reduced.norm_i**2) * params.t + sqrt_t * w_i
    log_s = (mu_s - 0.5 * reduced.norm_s**2) * params.t + sqrt_t * w_s
    with np.errstate(all="ignore"):
        return TerminalSample(*_in_float_range(np.exp(log_i), np.exp(log_s)))


def _finite_positive(x: np.ndarray) -> bool:
    """The one float-range rule of prices and their ratios: every element
    is finite and positive (true of an empty array)."""
    # a NaN is the minimum, and fails the first comparison
    return x.size == 0 or (0.0 < x.min() and x.max() < math.inf)


def _in_float_range(*prices: np.ndarray) -> tuple[np.ndarray, ...]:
    """The price arrays, if every price is finite and positive."""
    if not all(map(_finite_positive, prices)):
        raise ValueError("sampled prices must be finite and strictly positive; "
                         "the market leaves the float range")
    return prices


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
    step: the path grids record it and the hedging study streams it.
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
    each grid is :func:`step_prices` of column ``k``.  A price that
    leaves the float range (0.0 or inf) is a ``ValueError``.
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
    point = PricePoint.at_start(n)
    index[:, 0], stock[:, 0] = point.index, point.stock
    with np.errstate(all="ignore"):
        for k in range(times.size - 1):
            point = step_prices(params, measure, times[k + 1] - times[k], increments[:, k], point)
            index[:, k + 1], stock[:, k + 1] = point.index, point.stock
    return PathBatch(times, *_in_float_range(index, stock))


def simulate_paths(
    params: MarketParams,
    measure: Measure,
    n_steps: int,
    n_paths: int,
    seed: int,
    *,
    first_path: int = 0,
) -> PathBatch:
    """Exact stepping of a batch of paths on the uniform grid.

    Path ``k`` uses the normal pairs at counters ``(seed, first_path + k,
    step)``, scaled by ``sqrt(t / n_steps)``, so a one-path call with
    ``first_path=k`` equals row ``k`` of any batch that holds it.  The
    grids are those of :func:`paths_from_increments`.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    increments = np.empty((n_paths, n_steps, 2))
    for step in range(n_steps):
        increments[:, step] = rng.normal_pairs(seed, first_path, n_paths, step)
    increments *= np.sqrt(params.t / n_steps)
    return paths_from_increments(params, measure, np.linspace(0.0, params.t, n_steps + 1),
                                 increments)

