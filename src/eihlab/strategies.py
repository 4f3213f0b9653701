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
which a caller takes once per batch of terminal prices.

:class:`Replication` is the one step along a batch of paths that
follows a strategy two ways: the analytic track sums claim values (the
ground truth used to verify the propositions), and the hedged track
rebalances a discrete self-financing portfolio to the closed-form
deltas, as a numerical-fidelity study.  Rebalancing stops before expiry
because digital deltas diverge there.  The hedging study streams its
steps and keeps no wealth grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import DigitalSpec, Direction, _valuation, log_thresholds
from .market import MarketParams, ReducedParams, TerminalSample, _finite_positive
from .normal import upper_quantile

__all__ = [
    "BoundReport",
    "DigitalComponent",
    "PrudentStrategy",
    "Replication",
    "Side",
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
    "strategy_fires",
    "terminal_log_ratios",
    "terminal_wealth",
]


class Underlying(enum.Enum):
    """Which asset forms the ratio numerator against the index."""

    STOCK = "stock"
    BOND = "bond"


class Side(enum.Enum):
    """Tail direction of a one-sided construction."""

    UPPER = "upper"
    LOWER = "lower"

    @classmethod
    def of_gap(cls, gap: float) -> "Side":
        """The profitable tail for a drift gap: upper when it is >= 0."""
        return cls.UPPER if gap >= 0.0 else cls.LOWER


@dataclass(frozen=True)
class DigitalComponent:
    """One digital claim plus how many units of it the strategy holds.

    ``initial_wealth`` is the time-0 price of a single unit; replication
    of ``w`` units of wealth holds ``w / initial_wealth`` units.
    """

    spec: DigitalSpec
    reduced: ReducedParams
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


@dataclass(frozen=True)
class BoundReport:
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
    reduced: ReducedParams,
    underlying: Underlying,
    horizon: float,
    delta: float,
) -> tuple[DigitalComponent, DigitalComponent]:
    log_a, log_b = log_thresholds(reduced.delta_norm, horizon, delta)
    lower = DigitalComponent(
        spec=DigitalSpec(Direction.AT_MOST, log_a),
        reduced=reduced,
        underlying=underlying,
        initial_wealth=delta / 2.0,
    )
    upper = DigitalComponent(
        spec=DigitalSpec(Direction.AT_LEAST, log_b),
        reduced=reduced,
        underlying=underlying,
        initial_wealth=delta / 2.0,
    )
    return lower, upper


def _one_sided_component(
    reduced: ReducedParams,
    underlying: Underlying,
    horizon: float,
    delta: float,
    side: Side,
) -> DigitalComponent:
    # a band of tail mass 2 delta has one tail of mass delta on each side,
    # each claim worth (2 delta) / 2 = delta
    return _band_components(reduced, underlying, horizon, 2.0 * delta)[side is Side.UPPER]


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def build_two_sided(params: MarketParams, delta: float) -> PrudentStrategy:
    """Band strategy: pays I_T whenever S_T/I_T escapes (a, b).

    Two digital claims priced at delta/2 each; on escape paths the
    terminal wealth is I_T, a 1/delta multiple of the initial wealth
    times the index.
    """
    _check_delta(delta)
    comps = _band_components(params.reduced, Underlying.STOCK, params.t, delta)
    return PrudentStrategy(comps)


def build_one_sided(params: MarketParams, delta: float, side: Side | str) -> PrudentStrategy:
    """Single-tail variant with the delta-quantile replacing delta/2."""
    _check_delta(delta)
    side = Side(side)
    comp = _one_sided_component(params.reduced, Underlying.STOCK, params.t, delta, side)
    return PrudentStrategy((comp,))


def build_index_vs_bond(params: MarketParams, delta: float) -> PrudentStrategy:
    """Band strategy on the bond/index ratio.

    Same construction with the stock replaced by the bond, so the band
    event says the index outperforms the bond by roughly the squared
    index volatility over the horizon.
    """
    _check_delta(delta)
    comps = _band_components(params.reduced_vs_bond, Underlying.BOND, params.t, delta)
    return PrudentStrategy(comps)


def build_bond_one_sided(params: MarketParams, delta: float) -> PrudentStrategy:
    """One-sided bond/index strategy, tail picked by the sign of the bond drift gap."""
    _check_delta(delta)
    comp = _one_sided_component(params.reduced_vs_bond, Underlying.BOND, params.t, delta,
                                Side.of_gap(bond_drift_gap(params)))
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
    _check_delta(delta)
    if variant == "cor_2delta":
        stock = _scaled(build_one_sided(params, delta, Side.of_gap(drift_gap(params))), 1.0)
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
    """ln(numerator/index) at expiry, by underlying, for those asked for:
    ``ln(S_T/I_T)`` and ``r T - ln I_T``.  Terminal prices and a stock/index
    ratio (two finite prices can have an overflowing ratio) that are not
    finite and positive are a ``ValueError``."""
    if not all(map(_finite_positive, terminal)):
        raise ValueError("terminal prices must be finite and strictly positive")
    log_ratios = {}
    for underlying in underlyings:
        if underlying is Underlying.STOCK:
            with np.errstate(all="ignore"):
                ratio = terminal.stock / terminal.index
            if not _finite_positive(ratio):
                raise ValueError("prices and their ratios must be finite and strictly positive; "
                                 "the market leaves the float range")
            log_ratios[underlying] = np.log(ratio)
        else:
            log_ratios[underlying] = params.r * params.t - np.log(terminal.index)
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


def _in_band(reduced: ReducedParams, horizon: float, delta: float, log_ratio):
    """Whether the log ratio lies strictly inside the band of tail mass delta."""
    _check_delta(delta)
    log_a, log_b = log_thresholds(reduced.delta_norm, horizon, delta)
    return (log_ratio > log_a) & (log_ratio < log_b)


def event_two_sided(params: MarketParams, delta: float, log_ratio):
    """|ln(S_T/I_T) + delta_norm^2 T/2| < z_{delta/2} delta_norm sqrt(T).

    Exact complement of the two-sided strategy's payoff: both compare
    the same log ratio against the same stored band edges.
    """
    return _in_band(params.reduced, params.t, delta, log_ratio)


def event_one_sided(params: MarketParams, delta: float, log_ratio, side: Side | str):
    """One-tail band event; upper: centered log ratio stays below the
    z_delta width, lower: stays above its negative."""
    _check_delta(delta)
    comp = _one_sided_component(params.reduced, Underlying.STOCK, params.t, delta, Side(side))
    return ~comp.spec.payoff_indicator(log_ratio)


def event_recover(params: MarketParams, delta: float, log_ratio):
    """|ln(I_T e^{-rT}) - ||sigma_i||^2 T/2| < z_{delta/2} ||sigma_i|| sqrt(T),
    from the bond/index log ratio ``r T - ln I_T``."""
    return _in_band(params.reduced_vs_bond, params.t, delta, log_ratio)


# ---------------------------------------------------------------------------
# Wealth tracking


def _exp(x: float) -> float:
    """``math.exp(x)``, or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class Replication:
    """Both wealth tracks of a strategy, stepped along a batch of paths.

    The replication starts at the analytic value and, at every step
    from a time up to ``rebalance_cutoff`` (which must precede the
    horizon), resets its stock and index positions to the closed-form
    deltas; the residual is cash accruing at ``r``, and after the cutoff
    the last positions are held.  Bond-ratio components hedge with the
    bond and the index; their bond position lands in the cash leg via
    the self-financing residual, so only their index units are held.

    ``hedged`` is the hedged wealth after the last step (None before
    the first) and ``held`` the (stock, index) units held over it.
    """

    def __init__(self, strategy: PrudentStrategy, params: MarketParams,
                 rebalance_cutoff: float, n_paths: int):
        if not rebalance_cutoff < params.t:
            raise ValueError("rebalance cutoff must precede the horizon")
        self.strategy = strategy
        self.params = params
        self.rebalance_cutoff = rebalance_cutoff
        self.underlyings = {comp.underlying for comp in strategy.components}
        self.hedged = None
        self.held = np.zeros(n_paths), np.zeros(n_paths)

    def step(self, t: float, t_next: float, now: tuple[np.ndarray, np.ndarray],
             after: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Step from time ``t`` to ``t_next``; returns the analytic wealth at ``t``.

        ``now`` and ``after`` are the (index, stock) prices at the two
        times; after the first step, ``now`` is the last step's
        ``after``.  Prices, and the ratios valued at ``t``, must be finite
        and positive (two finite prices can have an overflowing ratio, and
        the bond level ``exp(r t)``, taken only for a bond ratio, can overflow).
        Each price is checked finite once, before it is read: ``now`` on
        the first step and ``after`` on every step; a price of 0.0 makes
        a ratio 0.0 or inf.  Takes the ratio and its log once per
        underlying and makes one valuation per component (values and, on
        rebalance steps, units together), with the same floats as
        ``claim_value`` and ``hedge_ratios``; leaves the hedged wealth at
        ``t_next`` in ``hedged``.
        """
        params = self.params
        if not 0.0 <= t < params.t:
            raise ValueError("valuation time must satisfy 0 <= t < horizon")
        index_t, stock_t = now
        with np.errstate(all="ignore"):
            ratios = {underlying: (stock_t if underlying is Underlying.STOCK
                                   else _exp(params.r * t)) / index_t
                      for underlying in self.underlyings}
        # a NaN is the maximum, and fails the comparison
        if not (all(x.max() < math.inf for x in (now + after if self.hedged is None else after))
                and all(map(_finite_positive, ratios.values()))):
            raise ValueError("prices and their ratios must be finite and strictly positive")
        rebalance = t <= self.rebalance_cutoff
        if rebalance:
            self.held = np.zeros(index_t.shape), np.zeros(index_t.shape)
        h_stock, h_index = self.held
        ratios = {underlying: (ratio, np.log(ratio)) for underlying, ratio in ratios.items()}
        analytic = np.zeros(index_t.shape)
        for comp in self.strategy.components:
            ratio, log_ratio = ratios[comp.underlying]
            value, units_s, units_i = _valuation(
                comp.spec, comp.reduced.delta_norm, params.t - t, ratio, log_ratio, index_t,
                rebalance)
            value *= comp.units
            analytic += value
            if rebalance:
                units_i *= comp.units
                h_index += units_i
                if comp.underlying is Underlying.STOCK:
                    units_s *= comp.units
                    h_stock += units_s
        hedged = analytic if self.hedged is None else self.hedged
        # in place, in the order of cash = hedged - h_stock s - h_index i and
        # hedged_next = h_stock s_next + h_index i_next + cash * growth
        cash = h_stock * stock_t
        np.subtract(hedged, cash, out=cash)
        term = h_index * index_t
        cash -= term
        cash *= _exp(params.r * (t_next - t))
        index_next, stock_next = after
        self.hedged = h_stock * stock_next
        np.multiply(h_index, index_next, out=term)
        self.hedged += term
        self.hedged += cash
        return analytic


# ---------------------------------------------------------------------------
# Drift bounds


def bound_check(params: MarketParams, delta: float, eps: float, which: str) -> BoundReport:
    """Evaluate one of the drift bounds at the given tail masses.

    ``mu``         |drift gap| < (z_{delta/2} + z_eps) delta_norm / sqrt(T)
    ``mu_bis``     same with z_delta
    ``index``      |mu_i - r - ||sigma_i||^2| < (z_delta + z_eps) ||sigma_i|| / sqrt(T)
    ``capm1``      |mu_s - r - sigma_s . sigma_i| < (z_delta + z_eps)(||sigma_i|| + delta_norm) / sqrt(T)
    ``capm_final`` |mu_s - r - beta (mu_i - r)| <= (z_delta + z_eps)(||sigma_i|| + ||sigma_s|| + delta_norm) / sqrt(T)
                   with beta = sigma_s . sigma_i / ||sigma_i||^2
    """
    _check_delta(delta)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    sqrt_t = math.sqrt(params.t)
    z_eps = upper_quantile(eps)
    z_delta = upper_quantile(delta)

    if which == "mu":
        lhs = abs(drift_gap(params))
        rhs = (upper_quantile(delta / 2.0) + z_eps) * params.spread_norm / sqrt_t
    elif which == "mu_bis":
        lhs = abs(drift_gap(params))
        rhs = (z_delta + z_eps) * params.spread_norm / sqrt_t
    elif which == "index":
        lhs = abs(params.mu_i - params.r - params.norm_i**2)
        rhs = (z_delta + z_eps) * params.norm_i / sqrt_t
    elif which == "capm1":
        lhs = abs(params.mu_s - params.r - params.cross)
        rhs = (z_delta + z_eps) * (params.norm_i + params.spread_norm) / sqrt_t
    elif which == "capm_final":
        beta = params.cross / params.norm_i**2
        lhs = abs(params.mu_s - params.r - beta * (params.mu_i - params.r))
        rhs = (z_delta + z_eps) * (params.norm_i + params.norm_s + params.spread_norm) / sqrt_t
        return BoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs, proposition=which)
    else:
        raise ValueError(f"unknown bound: {which!r}")
    return BoundReport(lhs=lhs, rhs=rhs, holds=lhs < rhs, proposition=which)
