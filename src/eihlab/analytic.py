"""Closed-form pricing of index-numeraire digital claims.

A digital exchange claim pays ``I_T`` times the indicator that the
ratio ``S_T / I_T`` finishes at or beyond a threshold.  Under the
measure that makes the index the numeraire, the ratio is lognormal with
volatility ``delta = ||sigma_s - sigma_i||`` and drift ``-delta^2 / 2``,
so the claim value is the current index level times a normal tail
probability.  All valuation here flows through one private kernel,
``_valuation``, which computes the standardized distance ``d`` once and
returns the claim value and, when asked, the replicating units;
``digital_price``, ``claim_value``, ``hedge_ratios`` and
:func:`eihlab.strategies.replicate` all call it.

Thresholds are computed and stored in log space.  Strategy payoffs and
event predicates compare one float of ``ln(S_T / I_T)``, taken once by
:func:`eihlab.strategies.terminal_log_ratios` as ``ln S_T - ln I_T`` from
the sampled log levels, against the same stored float, which is what
makes "payoff fired" and "event failed" exact complements path by path
instead of agreeing only up to rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .market import _check_norm, _finite_positive
from .normal import std_normal_cdf, std_normal_pdf, upper_quantile

__all__ = [
    "Direction",
    "DigitalSpec",
    "HedgeRatios",
    "claim_value",
    "digital_price",
    "gaussian_halfspace_expectation",
    "hedge_ratios",
    "log_thresholds",
    "thresholds",
]


class Direction(enum.Enum):
    """Which side of the threshold the claim pays on: ``AT_LEAST`` the
    upper tail of the ratio, ``AT_MOST`` the lower one.  A one-sided
    strategy buys the tail that :meth:`of_gap` picks from a drift gap."""

    AT_LEAST = "at_least"
    AT_MOST = "at_most"

    @classmethod
    def of_gap(cls, gap: float) -> "Direction":
        """The profitable tail for a drift gap: ``AT_LEAST`` when it is >= 0."""
        return cls.AT_LEAST if gap >= 0.0 else cls.AT_MOST


@dataclass(frozen=True)
class DigitalSpec:
    """A digital claim on the ratio S_T / I_T.

    ``log_threshold`` is the one comparison level, kept in log space
    only: a band edge whose exponential underflows (``ln a`` near -1000)
    is still a valid claim, but a level that is not finite is a
    ``ValueError``.  :meth:`at_level` takes a price-space level.  A
    direction may be given by its value, ``"at_least"`` or ``"at_most"``.
    """

    direction: Direction
    log_threshold: float

    def __post_init__(self):
        if not isinstance(self.direction, Direction):
            object.__setattr__(self, "direction", Direction(self.direction))
        if not math.isfinite(self.log_threshold):
            raise ValueError(f"log_threshold must be finite, got {self.log_threshold!r}")

    @classmethod
    def at_level(cls, direction: Direction, threshold: float) -> "DigitalSpec":
        threshold = float(threshold)
        if not threshold > 0.0:
            raise ValueError("threshold must be positive")
        return cls(direction, math.log(threshold))

    def payoff_indicator(self, log_ratio) -> np.ndarray:
        """Whether the claim pays, from the terminal log ratio."""
        log_ratio = np.asarray(log_ratio)
        if self.direction is Direction.AT_LEAST:
            return log_ratio >= self.log_threshold
        return log_ratio <= self.log_threshold


class HedgeRatios(NamedTuple):
    """Replicating positions: stock units and index units.

    Each field is a float for scalar prices and an array, elementwise,
    for array prices.
    """

    units_s: float | np.ndarray
    units_i: float | np.ndarray


def gaussian_halfspace_expectation(u, v, c: float):
    """E[exp(u . xi) 1{v . xi >= c}] for xi a standard normal pair.

    Equals ``exp(||u||^2 / 2) F((u . v - c) / ||v||)``; ``v`` must be
    nonzero.  Always lies strictly between 0 and ``exp(||u||^2 / 2)``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise ValueError("v must be nonzero")
    norm_u_sq = float(u @ u)
    return float(np.exp(0.5 * norm_u_sq)) * std_normal_cdf((float(u @ v) - c) / norm_v)


def log_thresholds(delta_norm: float, horizon: float, delta: float) -> tuple[float, float]:
    """Log-space band edges (ln a, ln b) for tail mass ``delta/2`` each.

    ``ln b = -delta_norm^2 T / 2 + z_{delta/2} delta_norm sqrt(T)`` and
    ``ln a`` mirrors it.  This is the canonical computation: every payoff
    indicator and event predicate compares against these exact floats.
    """
    z = upper_quantile(delta / 2.0)
    center = -0.5 * delta_norm * delta_norm * horizon
    half_width = z * delta_norm * math.sqrt(horizon)
    return center - half_width, center + half_width


def thresholds(delta_norm: float, horizon: float, delta: float) -> tuple[float, float]:
    """Band edges (a, b) in ratio space for a given escape mass ``delta``,
    for a ratio of spread norm ``delta_norm`` (such as
    :attr:`~eihlab.market.MarketParams.delta_norm`)."""
    _check_norm("delta_norm", delta_norm)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    log_a, log_b = log_thresholds(delta_norm, horizon, delta)
    a = math.exp(log_a)
    if a == 0.0:
        raise ValueError(f"band edge a = exp({log_a!r}) underflows; shorten the horizon")
    # b overflows only where a underflows: ln a + ln b = -delta_norm^2 T,
    # so ln a >= -745.2 and ln b > 709.78 would need delta_norm sqrt(T)
    # < 5.95 and then z_{delta/2} > 119, past the quantile of any float
    return a, math.exp(log_b)


def _valuation(spec: DigitalSpec, delta_norm: float, tau: float, ratio, log_ratio, i_t,
               hedge: bool):
    """Claim value at time to expiry ``tau`` and, with ``hedge``, its units.

    ``ratio`` is the numerator over the index (``S_t / I_t``, or the
    bond's over the index for bond-ratio claims) and ``log_ratio`` its
    ``np.log``; callers that value several claims on one ratio compute
    both once.  With ``sign`` +1 for ``at_least`` and -1 for ``at_most``,
    ``scale = delta_norm sqrt(tau)``, ``d = (log_ratio - log_threshold -
    delta_norm^2 tau / 2) / scale`` and ``z = sign * d``, returns
    ``(value, units_s, units_i) = (i_t F(z), sign f(z) / scale / ratio,
    F(z) - sign f(z) / scale)`` elementwise, without ``hedge`` the units
    None.  One CDF serves value and hedge, and ``F(z)`` keeps its
    relative accuracy deep in either tail, where ``1 - F(d)`` rounds to 0.
    Dividing by ``sign * scale`` negates exactly, so each result has the
    bits of these expressions; arrays are worked on in place.
    """
    signed_scale = delta_norm * np.sqrt(tau)
    if spec.direction is Direction.AT_MOST:
        signed_scale = -signed_scale
    z = log_ratio - spec.log_threshold
    z -= 0.5 * delta_norm * delta_norm * tau
    z /= signed_scale
    prob = std_normal_cdf(z)
    value = i_t * prob
    if not hedge:
        return value, None, None
    density = std_normal_pdf(z)
    # the scale first: ``ratio * signed_scale`` underflows to 0.0 on a
    # subnormal ratio, whose density is 0.0 too
    density /= signed_scale
    units_s = density / ratio
    prob -= density
    return value, units_s, prob


def _check_valuation(t: float, horizon: float, s_t, i_t) -> tuple[np.ndarray, np.ndarray]:
    """``(i_t, s_t / i_t)`` as arrays.  Prices and their ratio must be
    finite and positive (two finite prices can have a ratio of 0.0 or
    inf); a finite positive index and ratio imply both."""
    if not 0.0 <= t < horizon < math.inf:
        raise ValueError("valuation time must satisfy 0 <= t < horizon < inf")
    i_t = np.asarray(i_t, dtype=float)
    with np.errstate(all="ignore"):
        ratio = np.asarray(s_t, dtype=float) / i_t
    if not (_finite_positive(i_t) and _finite_positive(ratio)):
        raise ValueError("prices and their ratios must be finite and strictly positive")
    return i_t, ratio


def digital_price(delta_norm: float, spec: DigitalSpec, tau: float) -> float:
    """Time-(T - tau) claim value per unit index when S/I currently equals 1,
    for a ratio of spread norm ``delta_norm``."""
    _check_norm("delta_norm", delta_norm)
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    return float(_valuation(spec, delta_norm, tau, 1.0, 0.0, 1.0, hedge=False)[0])


def claim_value(
    delta_norm: float,
    spec: DigitalSpec,
    t: float,
    s_t,
    i_t,
    horizon: float,
):
    """Value of the claim at time ``t < horizon`` given current prices, for
    a ratio of spread norm ``delta_norm``.

    Scalar prices give a float; arrays broadcast elementwise.  The value
    is degree-1 homogeneous in ``(s_t, i_t)`` and nonnegative.
    """
    _check_norm("delta_norm", delta_norm)
    i_t, ratio = _check_valuation(t, horizon, s_t, i_t)
    value = _valuation(spec, delta_norm, horizon - t, ratio, np.log(ratio), i_t,
                       hedge=False)[0]
    return float(value) if value.ndim == 0 else value


def hedge_ratios(
    delta_norm: float,
    spec: DigitalSpec,
    t: float,
    s_t,
    i_t,
    horizon: float,
) -> HedgeRatios:
    """Replicating portfolio of the claim at ``(t, s_t, i_t)``, for a ratio
    of spread norm ``delta_norm``.

    Positions are the price partials; because the value is degree-1
    homogeneous in the two assets, they hold the whole value and no
    bond: ``units_s * s_t + units_i * i_t`` equals the claim value up to
    rounding.
    """
    _check_norm("delta_norm", delta_norm)
    i_t, ratio = _check_valuation(t, horizon, s_t, i_t)
    _, units_s, units_i = _valuation(spec, delta_norm, horizon - t, ratio, np.log(ratio), i_t,
                                     hedge=True)
    if np.asarray(units_s).ndim == 0:
        return HedgeRatios(float(units_s), float(units_i))
    return HedgeRatios(units_s, units_i)
