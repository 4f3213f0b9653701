"""Numerical oracles for the Gaussian half-space expectation.

These integrate E[exp(u . xi) 1{v . xi >= c}] without the completing-
the-square identity used by the closed form, so they can certify it.

A plain Gauss-Hermite tensor grid cannot do this: the indicator puts a
jump through the grid and the error stalls near 1e-2 regardless of node
count.  Instead the plane is rotated so the half-space boundary aligns
with one axis (rotation invariance of the Gaussian), which factorizes
the integral into a smooth full-line factor, handled by Gauss-Hermite,
and a truncated factor, handled by panel Gauss-Legendre with the
Gaussian weight folded into the integrand.  Both factors converge to
near machine precision at 64 nodes per axis.  Each rule is built once
per node count and shared, read-only, by every later call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import rng

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_PANEL_WIDTH = 2.0
_TAIL_CUTOFF = 40.0


@lru_cache(maxsize=None)
def _rule(build, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``build(n_nodes)``, made read-only."""
    nodes, weights = build(n_nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def halfspace_quadrature(u, v, c: float, n_nodes: int = 64) -> float:
    """Quadrature value of E[exp(u . xi) 1{v . xi >= c}], xi ~ N(0, I2)."""
    from numpy.polynomial.hermite import hermgauss  # only the lemma table needs a rule
    from numpy.polynomial.legendre import leggauss

    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise ValueError("v must be nonzero")
    q1 = v / norm_v
    q2 = np.array([-q1[1], q1[0]])
    along = float(u @ q1)
    across = float(u @ q2)
    edge = c / norm_v

    # Full-line factor E[exp(across * y)] by Gauss-Hermite.
    nodes, weights = _rule(hermgauss, n_nodes)
    smooth = float(weights @ np.exp(across * math.sqrt(2.0) * nodes)) / _SQRT_PI

    # Truncated factor int_edge^inf exp(along*y) phi(y) dy by panel
    # Gauss-Legendre; the integrand is a Gaussian bump centered at
    # ``along``, so the upper limit is pushed far past both features.
    upper = max(edge, along) + _TAIL_CUTOFF
    nodes_l, weights_l = _rule(leggauss, n_nodes)
    n_panels = max(1, int(math.ceil((upper - edge) / _PANEL_WIDTH)))
    edges = np.linspace(edge, upper, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    y = mids[:, None] + halves[:, None] * nodes_l[None, :]
    panel_sums = np.exp(along * y - 0.5 * y * y) @ weights_l
    truncated = float(halves @ panel_sums) / _SQRT_2PI

    return truncated * smooth


def halfspace_monte_carlo(
    u, v, c: float, n_draws: int, seed: int
) -> tuple[float, float]:
    """Plain Monte Carlo estimate and its standard error (``n_draws`` at
    least 2)."""
    if n_draws < 2:
        raise ValueError("n_draws must be at least 2 for a standard error")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if float(np.linalg.norm(v)) == 0.0:
        raise ValueError("v must be nonzero")
    xi = rng.normal_pairs(seed, 0, n_draws)
    values = np.exp(xi @ u) * ((xi @ v) >= c)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n_draws))
    return mean, se
