"""Standard normal distribution primitives.

The rest of the package leans on two accuracy guarantees:

* ``std_normal_cdf`` is accurate to better than 1e-12 absolute error
  (it is a thin erfc identity, so in practice machine precision);
* quantiles round-trip through the CDF to better than 1e-9 in
  probability.  They come from ``scipy.special.ndtri`` (Cephes), whose
  relative error is near machine precision over the whole open
  interval, tails included, and which is exactly odd: ``ndtri(1 - p) == -ndtri(p)``
  whenever ``1 - p`` is exact.

Threshold levels enter prices exponentially, which is why the quantile
must be accurate to machine precision rather than to a rational
approximation's 1e-9.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import erfc, ndtri

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = 1.0 / float(np.sqrt(2.0 * np.pi))


def _maybe_scalar(x: np.ndarray, scalar: bool) -> np.ndarray | float:
    return float(x) if scalar else x


def std_normal_cdf(x) -> np.ndarray | float:
    """Distribution function of N(0, 1), elementwise.

    Monotone, satisfies F(-x) = 1 - F(x), absolute error below 1e-12.
    """
    arr = np.asarray(x, dtype=float)
    return _maybe_scalar(0.5 * erfc(-arr / _SQRT2), arr.ndim == 0)


def std_normal_pdf(x) -> np.ndarray | float:
    """Density of N(0, 1), elementwise."""
    arr = np.asarray(x, dtype=float)
    return _maybe_scalar(_INV_SQRT_2PI * np.exp(-0.5 * arr * arr), arr.ndim == 0)


def std_normal_quantile(p) -> np.ndarray | float:
    """Inverse of ``std_normal_cdf`` on (0, 1), elementwise.

    Raises ``ValueError`` outside the open unit interval.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return _maybe_scalar(ndtri(arr), arr.ndim == 0)


def upper_quantile(p) -> np.ndarray | float:
    """Level z with P(xi >= z) = p for xi ~ N(0, 1), elementwise.

    Defined as -inf for p >= 1; rejects p <= 0.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("upper_quantile requires p > 0")

    z = np.full(arr.shape, -np.inf)
    interior = arr < 1.0
    z[interior] = -std_normal_quantile(arr[interior])
    return _maybe_scalar(z, arr.ndim == 0)


@lru_cache(maxsize=4096)
def cached_upper_quantile(p: float) -> float:
    """Memoized scalar ``upper_quantile`` for hot level computations.

    Kept although ``ndtri`` is fast: the cost of a scalar call is numpy's
    per-call array set-up, not the arithmetic, so a hit (about 0.1 us)
    still beats a scalar ``upper_quantile`` (tens of us) by two orders
    of magnitude, and bound checks ask for the same few masses over and
    over.
    """
    return float(upper_quantile(p))
