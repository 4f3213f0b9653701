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
approximation's 1e-9.  The quantile serves thresholds, bounds and
intervals only: the random stream's normals come from numpy's ziggurat
(:mod:`eihlab.rng`), not from the quantile of uniforms.

A Python or numpy float takes a scalar path through ``std_normal_cdf``
and ``upper_quantile``, the calls the scalar bound, threshold and price
API makes: the same ``erfc``/``ndtri`` ufunc on the float, with no array
set-up (under a microsecond a call), giving the bits and the errors of a
0-d array.  NaN is outside every quantile's domain.

``erfc`` and ``ndtri`` are imported from ``scipy.special._ufuncs`` under
an unexecuted placeholder for the ``scipy.special`` package, because the
package's own init loads an array-API layer (``numpy.f2py``,
``numpy.testing``, ``unittest``) that takes more than half of
``import eihlab`` and that nothing here uses; they are the very objects
``scipy.special`` exports (unless scipy's array-API mode wraps them),
and an already loaded ``scipy.special`` is used as it is.  The
placeholder, and every ``scipy.special`` submodule loaded under it,
exist only while ``eihlab.normal`` itself is being imported, and if
that load fails the public ``from scipy.special import erfc, ndtri``
runs instead.
"""

from __future__ import annotations

import importlib.util
import math
import sys

import numpy as np


def _scipy_ufuncs():
    """``(erfc, ndtri)``, the ufuncs that ``scipy.special`` exports."""
    if "scipy.special" not in sys.modules:
        spec = importlib.util.find_spec("scipy.special")
        sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
        try:
            from scipy.special._ufuncs import erfc, ndtri
            return erfc, ndtri
        except ImportError:
            pass
        finally:
            for name in [n for n in sys.modules
                         if n == "scipy.special" or n.startswith("scipy.special.")]:
                del sys.modules[name]
    from scipy.special import erfc, ndtri
    return erfc, ndtri


erfc, ndtri = _scipy_ufuncs()

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = 1.0 / float(np.sqrt(2.0 * np.pi))
_POSITIVE = "upper_quantile requires p > 0"


def _maybe_scalar(x: np.ndarray, scalar: bool) -> np.ndarray | float:
    return float(x) if scalar else x


def std_normal_cdf(x) -> np.ndarray | float:
    """Distribution function of N(0, 1), elementwise.

    Monotone, satisfies F(-x) = 1 - F(x), absolute error below 1e-12.
    """
    if isinstance(x, float):
        return float(0.5 * erfc(-x / _SQRT2))
    arr = np.asarray(x, dtype=float)
    out = np.divide(arr, -_SQRT2, out=np.empty(arr.shape))
    erfc(out, out=out)
    out *= 0.5
    return _maybe_scalar(out, arr.ndim == 0)


def std_normal_pdf(x) -> np.ndarray | float:
    """Density of N(0, 1), elementwise."""
    arr = np.asarray(x, dtype=float)
    out = np.multiply(arr, -0.5, out=np.empty(arr.shape))
    out *= arr
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return _maybe_scalar(out, arr.ndim == 0)


def std_normal_quantile(p) -> np.ndarray | float:
    """Inverse of ``std_normal_cdf`` on (0, 1), elementwise.

    Raises ``ValueError`` outside the open unit interval and at NaN.
    """
    arr = np.asarray(p, dtype=float)
    if not ((arr > 0.0).all() and (arr < 1.0).all()):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return _maybe_scalar(ndtri(arr), arr.ndim == 0)


def upper_quantile(p) -> np.ndarray | float:
    """Level z with P(xi >= z) = p for xi ~ N(0, 1), elementwise.

    Defined as -inf for p >= 1; rejects p <= 0 and NaN.
    """
    if isinstance(p, float):
        if not p > 0.0:
            raise ValueError(_POSITIVE)
        return -float(ndtri(p)) if p < 1.0 else -math.inf
    arr = np.asarray(p, dtype=float)
    if not (arr > 0.0).all():
        raise ValueError(_POSITIVE)
    z = np.full(arr.shape, -np.inf)
    interior = arr < 1.0
    z[interior] = -ndtri(arr[interior])
    return _maybe_scalar(z, arr.ndim == 0)
