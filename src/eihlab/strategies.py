"""Prudent index-beating strategies built from digital exchange claims.

A strategy is a basket of digital claims on a ratio: stock/index for
the stock constructions, bond/index for the equity-premium ones.  Each
claim is replicable, so the basket is self-financing with nonnegative
wealth (a sum of claim values), and its terminal wealth is an exact
indicator payoff.  That exactness is what the verification experiments
lean on: "the band event failed" and "the strategy collected the 1/delta
multiple of the index" are complementary booleans computed from one
comparison, never two formulas that agree only in exact arithmetic.
Payoffs and events both read the floats of :func:`terminal_log_ratios`,
which a caller takes once per batch of terminal log levels, by
subtraction: no terminal price or price ratio is formed.

:func:`replicate` values a strategy on a batch of prices at one time,
two ways: the analytic wealth sums claim values (the ground truth used
to verify the propositions), and the units are the closed-form deltas
that a discrete self-financing replication holds, as a
numerical-fidelity study.  It keeps no state: :func:`self_financing`
carries hedged wealth over a step that holds the units, and the caller
keeps that wealth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analytic import (DigitalSpec, Direction, _check_valuation, _valuation, check_tail_mass,
                       log_thresholds)
from .market import MarketParams, TerminalSample, _in_exp_range
from .normal import upper_quantile

__all__ = [
    "BoundReport",
    "DigitalComponent",
    "PrudentStrategy",
    "Underlying",
    "bond_drift_gap",
    "bound_check",
    "build_bond_one_sided",
    "build_capm_composite",
    "build_index_vs_bond",
    "build_one_sided",
    "build_two_sided",
    "drift_gap",
    "event_one_sided",
    "event_recover",
    "event_two_sided",
    "replicate",
    "self_financing",
    "strategy_fires",
    "terminal_log_ratios",
    "terminal_wealth",
]


class Underlying(enum.Enum):
    """Which asset forms the ratio numerator against the index."""

    STOCK = "stock"
    BOND = "bond"


@dataclass(frozen=True)
class DigitalComponent:
    """One digital claim plus how many units of it the strategy holds.

    ``delta_norm`` is the spread norm of the claim's ratio, the one float
    its valuation reads: the market's ``delta_norm`` for a stock ratio,
    ``norm_i`` for a bond ratio (the bond is the stock of zero
    volatility).
    ``initial_wealth`` is the time-0 price of a single unit; replication
    of ``w`` units of wealth holds ``w / initial_wealth`` units.
    """

    spec: DigitalSpec
    delta_norm: float
    underlying: Underlying
    initial_wealth: float
    units: float = 1.0

    def __post_init__(self):
        if not self.initial_wealth > 0.0:
            raise ValueError("component initial wealth must be positive")

    @property
    def wealth0(self) -> float:
        return self.units * self.initial_wealth


@dataclass(frozen=True)
class PrudentStrategy:
    """A basket of digital components."""

    components: tuple[DigitalComponent, ...]

    @property
    def total_initial_wealth(self) -> float:
        return sum(c.wealth0 for c in self.components)


class BoundReport(NamedTuple):
    """One side-by-side evaluation of a drift bound."""

    lhs: float
    rhs: float
    holds: bool
    proposition: str


def _scaled(strategy: PrudentStrategy, target_wealth: float) -> PrudentStrategy:
    """Linearly rescale the basket to a target initial wealth."""
    factor = target_wealth / strategy.total_initial_wealth
    return PrudentStrategy(tuple(replace(c, units=c.units * factor)
                                 for c in strategy.components))


def drift_gap(params: MarketParams) -> float:
    """mu_s - mu_i + ||sigma_i||^2 - sigma_s . sigma_i.

    Zero exactly when the stock's appreciation rate sits at its
    index-implied level; its sign picks the profitable one-sided tail.
    """
    return params.mu_s - params.mu_i + params.norm_i_sq - params.cross


def bond_drift_gap(params: MarketParams) -> float:
    """r - mu_i + ||sigma_i||^2: the drift gap with the bond as the stock."""
    return params.r - params.mu_i + params.norm_i_sq


# ---------------------------------------------------------------------------
# Construction


def _band_components(
    delta_norm: float,
    underlying: Underlying,
    horizon: float,
    delta: float,
) -> tuple[DigitalComponent, DigitalComponent]:
    log_a, log_b = log_thresholds(delta_norm, horizon, delta)
    lower = DigitalComponent(
        spec=DigitalSpec(Direction.AT_MOST, log_a),
        delta_norm=delta_norm,
        underlying=underlying,
        initial_wealth=delta / 2.0,
    )
    upper = DigitalComponent(
        spec=DigitalSpec(Direction.AT_LEAST, log_b),
        delta_norm=delta_norm,
        underlying=underlying,
        initial_wealth=delta / 2.0,
    )
    return lower, upper


def _one_sided_component(
    delta_norm: float,
    underlying: Underlying,
    horizon: float,
    delta: float,
    direction: Direction,
) -> DigitalComponent:
    # a band of tail mass 2 delta has one tail of mass delta on each side,
    # each claim worth (2 delta) / 2 = delta
    band = _band_components(delta_norm, underlying, horizon, 2.0 * delta)
    return band[direction is Direction.AT_LEAST]


def build_two_sided(params: MarketParams, delta: float) -> PrudentStrategy:
    """Band strategy: pays I_T whenever S_T/I_T escapes (a, b).

    Two digital claims priced at delta/2 each; on escape paths the
    terminal wealth is I_T, a 1/delta multiple of the initial wealth
    times the index.
    """
    check_tail_mass("delta", delta)
    comps = _band_components(params.delta_norm, Underlying.STOCK, params.t, delta)
    return PrudentStrategy(comps)


def build_one_sided(params: MarketParams, delta: float, direction: Direction) -> PrudentStrategy:
    """Single-tail variant with the delta-quantile replacing delta/2, paying
    on the tail ``direction`` names (a :class:`Direction` or its value)."""
    check_tail_mass("delta", delta)
    comp = _one_sided_component(params.delta_norm, Underlying.STOCK, params.t, delta,
                                Direction(direction))
    return PrudentStrategy((comp,))


def build_index_vs_bond(params: MarketParams, delta: float) -> PrudentStrategy:
    """Band strategy on the bond/index ratio.

    Same construction with the stock replaced by the bond, so the band
    event says the index outperforms the bond by roughly the squared
    index volatility over the horizon.
    """
    check_tail_mass("delta", delta)
    comps = _band_components(params.norm_i, Underlying.BOND, params.t, delta)
    return PrudentStrategy(comps)


def build_bond_one_sided(params: MarketParams, delta: float) -> PrudentStrategy:
    """One-sided bond/index strategy, tail picked by the sign of the bond drift gap."""
    check_tail_mass("delta", delta)
    comp = _one_sided_component(params.norm_i, Underlying.BOND, params.t, delta,
                                Direction.of_gap(bond_drift_gap(params)))
    return PrudentStrategy((comp,))


def build_capm_composite(params: MarketParams, delta: float, variant: str) -> PrudentStrategy:
    """Strategies behind the drift-bound guarantees.

    ``cor_2delta``   the one-sided stock strategy, tail picked by the sign
                     of the drift gap, and the one-sided bond strategy,
                     each rescaled to wealth 1; beats by 1/(2 delta) when
                     either fires.
    ``cor_3delta``   one-sided bond strategy (wealth 1) plus the
                     cor_2delta basket (wealth 2); beats by 1/(3 delta).
    """
    check_tail_mass("delta", delta)
    if variant == "cor_2delta":
        stock = _scaled(build_one_sided(params, delta, Direction.of_gap(drift_gap(params))), 1.0)
        bond = _scaled(build_bond_one_sided(params, delta), 1.0)
        return PrudentStrategy(stock.components + bond.components)
    if variant == "cor_3delta":
        bond = _scaled(build_bond_one_sided(params, delta), 1.0)
        inner = build_capm_composite(params, delta, "cor_2delta")
        return PrudentStrategy(bond.components + inner.components)
    raise ValueError(f"unknown composite variant: {variant!r}")


# ---------------------------------------------------------------------------
# Ratio plumbing shared by payoffs and events


def terminal_log_ratios(params: MarketParams, terminal: TerminalSample,
                        *underlyings: Underlying) -> dict[Underlying, np.ndarray]:
    """ln(numerator/index) at expiry, by underlying, for those asked for,
    from the terminal log levels: ``ln S_T - ln I_T`` and ``r T - ln I_T``.
    A log level or a stock log ratio (two prices in the float range can
    have an overflowing ratio) whose price or ratio ``np.exp`` would make
    0.0 or inf is a ``ValueError``; no price or ratio is formed."""
    if not all(map(_in_exp_range, terminal)):
        raise ValueError("terminal prices must be finite and strictly positive")
    log_ratios = {}
    for underlying in underlyings:
        if underlying is Underlying.STOCK:
            log_ratio = terminal.log_stock - terminal.log_index
            if not _in_exp_range(log_ratio):
                raise ValueError("prices and their ratios must be finite and strictly positive; "
                                 "the market leaves the float range")
            log_ratios[underlying] = log_ratio
        else:
            log_ratios[underlying] = params.r * params.t - terminal.log_index
    return log_ratios


def terminal_wealth(strategy: PrudentStrategy, i_terminal, log_ratios: dict):
    """Exact terminal wealth of the basket, from :func:`terminal_log_ratios`."""
    total = np.zeros(i_terminal.shape)
    for comp in strategy.components:
        total += comp.units * i_terminal * comp.spec.payoff_indicator(log_ratios[comp.underlying])
    return total


def strategy_fires(strategy: PrudentStrategy, log_ratios: dict):
    """Whether any component pays off (boolean, elementwise)."""
    fired = None
    for comp in strategy.components:
        ind = comp.spec.payoff_indicator(log_ratios[comp.underlying])
        fired = ind if fired is None else (fired | ind)
    return fired


# ---------------------------------------------------------------------------
# Event predicates, stated as in the propositions


def _in_band(delta_norm: float, horizon: float, delta: float, log_ratio):
    """Whether the log ratio lies strictly inside the band of tail mass delta."""
    check_tail_mass("delta", delta)
    log_a, log_b = log_thresholds(delta_norm, horizon, delta)
    return (log_ratio > log_a) & (log_ratio < log_b)


def event_two_sided(params: MarketParams, delta: float, log_ratio):
    """|ln(S_T/I_T) + delta_norm^2 T/2| < z_{delta/2} delta_norm sqrt(T).

    Exact complement of the two-sided strategy's payoff: both compare
    the same log ratio against the same stored band edges.
    """
    return _in_band(params.delta_norm, params.t, delta, log_ratio)


def event_one_sided(params: MarketParams, delta: float, log_ratio, direction: Direction):
    """One-tail band event, the complement of :func:`build_one_sided`'s
    payoff; at_least: centered log ratio stays below the z_delta width,
    at_most: stays above its negative."""
    check_tail_mass("delta", delta)
    comp = _one_sided_component(params.delta_norm, Underlying.STOCK, params.t, delta,
                                Direction(direction))
    return ~comp.spec.payoff_indicator(log_ratio)


def event_recover(params: MarketParams, delta: float, log_ratio):
    """|ln(I_T e^{-rT}) - ||sigma_i||^2 T/2| < z_{delta/2} ||sigma_i|| sqrt(T),
    from the bond/index log ratio ``r T - ln I_T``."""
    return _in_band(params.norm_i, params.t, delta, log_ratio)


# ---------------------------------------------------------------------------
# Wealth tracking


def _exp(x: float) -> float:
    """``math.exp(x)``, or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def replicate(
    strategy: PrudentStrategy, params: MarketParams, t: float, now: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The strategy's analytic wealth at time ``t`` and the (stock, index)
    units that replicate it, at the (index, stock) prices ``now``.

    The units are the closed-form deltas; ``t`` must precede the
    horizon, where digital deltas diverge.  Bond-ratio components hedge
    with the bond and the index; their bond position lands in the cash
    leg via the self-financing residual, so only their index units are
    held.  The index, and each ratio valued at ``t``, must be finite and
    positive (two finite prices can have an overflowing ratio, and the
    bond level ``exp(r t)``, taken only for a bond ratio, can overflow);
    ``claim_value``'s check enforces that, once per underlying read, so
    a bond-only strategy never reads the stock.  Takes the ratio and its
    log once per underlying and makes one valuation per component (value
    and units together), with the same floats as ``claim_value`` and
    ``hedge_ratios``.
    """
    index_t, stock_t = now
    ratios = {}
    for underlying in {comp.underlying for comp in strategy.components}:
        numerator = stock_t if underlying is Underlying.STOCK else _exp(params.r * t)
        ratio = _check_valuation(t, params.t, numerator, index_t)[1]
        ratios[underlying] = ratio, np.log(ratio)
    analytic, h_stock, h_index = (np.zeros(index_t.shape) for _ in range(3))
    for comp in strategy.components:
        ratio, log_ratio = ratios[comp.underlying]
        value, units_s, units_i = _valuation(
            comp.spec, comp.delta_norm, params.t - t, ratio, log_ratio, index_t, True)
        analytic += comp.units * value
        h_index += comp.units * units_i
        if comp.underlying is Underlying.STOCK:
            h_stock += comp.units * units_s
    return analytic, (h_stock, h_index)


def self_financing(hedged: np.ndarray, held: tuple[np.ndarray, np.ndarray],
                   now: tuple[np.ndarray, np.ndarray], after: tuple[np.ndarray, np.ndarray],
                   r_dt: float) -> np.ndarray:
    """Hedged wealth after one step that holds the (stock, index) units
    ``held`` between the (index, stock) prices ``now`` and ``after``: the
    cash ``hedged - h_s s - h_i i`` grows by ``exp(r_dt)`` (inf where that
    overflows) and adds to ``h_s s' + h_i i'``, in that order."""
    (h_stock, h_index), (index_t, stock_t), (index_next, stock_next) = held, now, after
    cash = (hedged - h_stock * stock_t - h_index * index_t) * _exp(r_dt)
    return h_stock * stock_next + h_index * index_next + cash


# ---------------------------------------------------------------------------
# Drift bounds


def bound_check(params: MarketParams, delta: float, eps: float, which: str) -> BoundReport:
    """Evaluate one of the drift bounds at the given tail masses.

    ``mu``         |drift_gap| < (z_{delta/2} + z_eps) delta_norm / sqrt(T)
    ``mu_bis``     same with z_delta
    ``index``      |bond_drift_gap| < (z_delta + z_eps) norm_i / sqrt(T)
    ``capm1``      |mu_s - r - cross| < (z_delta + z_eps)(norm_i + delta_norm) / sqrt(T)
    ``capm_final`` |mu_s - r - beta (mu_i - r)| <= (z_delta + z_eps)(norm_i + norm_s + delta_norm) / sqrt(T)
                   with beta = cross / norm_i_sq

    Each name is the stored :class:`MarketParams` float (``delta_norm`` =
    ||sigma_s - sigma_i||) that the bound's strategy, gap and target read.
    """
    check_tail_mass("delta", delta)
    check_tail_mass("eps", eps)
    sqrt_t = math.sqrt(params.t)
    z_eps = upper_quantile(eps)
    z_delta = upper_quantile(delta)

    if which == "mu":
        lhs = abs(drift_gap(params))
        rhs = (upper_quantile(delta / 2.0) + z_eps) * params.delta_norm / sqrt_t
    elif which == "mu_bis":
        lhs = abs(drift_gap(params))
        rhs = (z_delta + z_eps) * params.delta_norm / sqrt_t
    elif which == "index":
        lhs = abs(bond_drift_gap(params))
        rhs = (z_delta + z_eps) * params.norm_i / sqrt_t
    elif which == "capm1":
        lhs = abs(params.mu_s - params.r - params.cross)
        rhs = (z_delta + z_eps) * (params.norm_i + params.delta_norm) / sqrt_t
    elif which == "capm_final":
        beta = params.cross / params.norm_i_sq
        lhs = abs(params.mu_s - params.r - beta * (params.mu_i - params.r))
        rhs = (z_delta + z_eps) * (params.norm_i + params.norm_s + params.delta_norm) / sqrt_t
        return BoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs, proposition=which)
    else:
        raise ValueError(f"unknown bound: {which!r}")
    return BoundReport(lhs=lhs, rhs=rhs, holds=lhs < rhs, proposition=which)
