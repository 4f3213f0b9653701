"""Span tracing of eihlab's layers, installed from outside the package.

Each layer's public functions are replaced by wrappers in every
``eihlab`` module that holds a reference to them (``from .normal import
std_normal_quantile`` makes ``eihlab.rng.std_normal_quantile`` a second
name that must be patched too, as must a module-level dispatch table
such as the CLI's proposition-to-verifier dict).  A wrapper measures one
span per call: its parent span, its layer, its duration, its self time
(duration minus direct child spans), its layer-exclusive time (duration
minus the time spent in other layers below it) and an item count, and
adds them to per-layer and per-function sums.

Private helpers are not wrapped on purpose: time in them lands in the
self time of the nearest wrapped caller, which is how the hedging
study's wealth-tracking loop shows up as ``experiments`` self time.
A target a later refactor removes is skipped and reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

import numpy as np

LAYERS = ("normal", "rng", "market", "analytic", "strategies",
          "experiments", "quadrature", "cli")


def _one(args, kwargs, result) -> int:
    return 1


def _size(args, kwargs, result) -> int:
    return int(np.size(result))


def _pairs(args, kwargs, result) -> int:
    return int(np.size(result)) // 2


def _first_size(args, kwargs, result) -> int:
    return int(np.size(result[0]))


def _path_steps(args, kwargs, result) -> int:
    n_paths, n_steps = result.driver_increments.shape[:2]
    return int(n_paths * n_steps)


def _length(args, kwargs, result) -> int:
    return len(result)


def _csv_rows(args, kwargs, result) -> int:
    rows = kwargs.get("rows", args[2] if len(args) > 2 else ())
    return len(rows)


def _mc_draws(args, kwargs, result) -> int:
    return int(kwargs.get("n_draws", args[3] if len(args) > 3 else 0))


# (layer, module, attribute, item counter).  "Class.method" patches the
# class attribute, which covers every construction site at once.
TARGETS: tuple[tuple[str, str, str, Callable], ...] = (
    ("normal", "eihlab.normal", "std_normal_cdf", _size),
    ("normal", "eihlab.normal", "std_normal_pdf", _size),
    ("normal", "eihlab.normal", "std_normal_quantile", _size),
    ("normal", "eihlab.normal", "upper_quantile", _size),
    ("normal", "eihlab.normal", "cached_upper_quantile", _one),
    ("rng", "eihlab.rng", "philox4x64", _first_size),
    ("rng", "eihlab.rng", "uniform_pairs", _pairs),
    ("rng", "eihlab.rng", "normal_pairs", _pairs),
    ("market", "eihlab.market", "MarketParams.__init__", _one),
    ("market", "eihlab.market", "reduce_dimension", _one),
    ("market", "eihlab.market", "reduce_dimension_vs_bond", _one),
    ("market", "eihlab.market", "simulate_terminal", _first_size),
    ("market", "eihlab.market", "simulate_paths", _path_steps),
    ("market", "eihlab.market", "simulate_path", _one),
    ("market", "eihlab.market", "path_from_increments", _one),
    ("market", "eihlab.market", "log_ratio_law", _one),
    ("market", "eihlab.market", "drift_pair", _one),
    ("analytic", "eihlab.analytic", "gaussian_halfspace_expectation", _one),
    ("analytic", "eihlab.analytic", "log_thresholds", _one),
    ("analytic", "eihlab.analytic", "thresholds", _one),
    ("analytic", "eihlab.analytic", "digital_price", _one),
    ("analytic", "eihlab.analytic", "claim_value", _size),
    ("analytic", "eihlab.analytic", "hedge_ratios", _first_size),
    ("strategies", "eihlab.strategies", "drift_gap", _one),
    ("strategies", "eihlab.strategies", "bond_drift_gap", _one),
    ("strategies", "eihlab.strategies", "build_two_sided", _one),
    ("strategies", "eihlab.strategies", "build_one_sided", _one),
    ("strategies", "eihlab.strategies", "build_index_vs_bond", _one),
    ("strategies", "eihlab.strategies", "build_capm_composite", _one),
    ("strategies", "eihlab.strategies", "terminal_wealth", _size),
    ("strategies", "eihlab.strategies", "strategy_fires", _size),
    ("strategies", "eihlab.strategies", "event_two_sided", _size),
    ("strategies", "eihlab.strategies", "event_one_sided", _size),
    ("strategies", "eihlab.strategies", "event_recover", _size),
    ("strategies", "eihlab.strategies", "analytic_wealth", _one),
    ("strategies", "eihlab.strategies", "hedged_wealth", _one),
    ("strategies", "eihlab.strategies", "bound_check", _one),
    ("experiments", "eihlab.experiments", "_map_chunks", _length),
    ("experiments", "eihlab.experiments", "wilson_ci", _one),
    ("experiments", "eihlab.experiments", "band_probability", _one),
    ("experiments", "eihlab.experiments", "one_sided_beat_probability", _one),
    ("experiments", "eihlab.experiments", "exact_capm_params", _one),
    ("experiments", "eihlab.experiments", "mu_bis_boundary_params", _one),
    ("experiments", "eihlab.experiments", "verify_two_sided", _one),
    ("experiments", "eihlab.experiments", "verify_capm", _one),
    ("experiments", "eihlab.experiments", "verify_index_premium", _one),
    ("experiments", "eihlab.experiments", "capm_convergence_study", _one),
    ("experiments", "eihlab.experiments", "lemma_crosscheck", _length),
    ("experiments", "eihlab.experiments", "hedging_fidelity_study", _one),
    ("experiments", "eihlab.experiments", "report_to_dict", _one),
    ("quadrature", "eihlab.quadrature", "halfspace_quadrature", _one),
    ("quadrature", "eihlab.quadrature", "halfspace_monte_carlo", _mc_draws),
    ("cli", "eihlab.cli", "main", _one),
    ("cli", "eihlab.cli", "write_csv", _csv_rows),
)


class Tracer:
    """Aggregates spans as they close; ``install`` patches the package.

    Spans are summed per layer and per function rather than kept, so a
    long traced run holds constant memory.  Wrappers record only inside
    ``with tracer.active():``, so calls the benchmark makes itself
    (building inputs, checking outputs) stay out of the sums.
    """

    def __init__(self):
        self.enabled = False
        self.missing: list[str] = []
        self.span_count = 0
        self.layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        self.functions: dict = defaultdict(lambda: {"calls": 0, "items": 0, "layer_s": 0.0})
        self.roots: dict = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn: Callable, count: Callable) -> Callable:
        clock = time.perf_counter
        key = f"{layer}.{name}"
        layer_acc = self.layers[layer]
        fn_acc = self.functions[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            # frame: [layer, child time, time in other layers]
            frame = [layer, 0.0, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                    parent[2] += duration if parent[0] != layer else frame[2]
                else:
                    self.roots[key] += duration
            self.span_count += 1
            layer_acc["self_s"] += duration - frame[1]
            layer_acc["calls"] += 1
            fn_acc["calls"] += 1
            fn_acc["items"] += count(args, kwargs, result)
            fn_acc["layer_s"] += duration - frame[2]
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def install(self) -> None:
        """Patch every target in every loaded ``eihlab`` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eihlab" or n.startswith("eihlab."))]
        for layer, module_name, attr, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(layer, attr, original, count)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for name, entry in list(value.items()):
                            if entry is original:
                                value[name] = wrapped

    def summary(self) -> dict:
        """Per-layer self time and call count, per-function items and
        layer-exclusive time, and the inclusive time of top-level spans
        by function, summed over every recorded span."""
        return {"layers": self.layers, "functions": dict(self.functions),
                "roots": dict(self.roots), "spans": self.span_count,
                "missing": list(self.missing)}
