"""CDF and quantile accuracy contracts."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import eihlab
from eihlab.normal import std_normal_cdf, std_normal_pdf, std_normal_quantile, upper_quantile

from conftest import bits_digest


def bisect_cdf_inverse(target: float, lo: float = -50.0, hi: float = 50.0) -> float:
    """Independent inversion oracle: plain bisection on the CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_saturates():
    assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15
    assert std_normal_cdf(-40.0) <= 1e-15


def test_cdf_at_975_quantile():
    assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-6
    # value frozen from the bisection oracle
    assert abs(bisect_cdf_inverse(0.975) - 1.9599639845400545) < 1e-12


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_cdf_symmetry(x):
    assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-14)


def test_cdf_monotone():
    grid = np.linspace(-12.0, 12.0, 4001)
    values = std_normal_cdf(grid)
    assert np.all(np.diff(values) >= 0.0)


# a grid over [-40, 40], then signed zeros, infinities, least subnormals
# and 1e-300s
SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, -1e-300]
KERNEL_INPUTS = np.concatenate([np.linspace(-40.0, 40.0, 100_001), SPECIAL])


def test_cdf_and_pdf_bits_are_frozen():
    # the kernels' output bits, on arrays and on 0-d arrays (which take the
    # array path and return floats): a rewrite of either kernel must keep
    # them, and a deliberate change needs a CHANGES.md note
    assert bits_digest(std_normal_cdf(KERNEL_INPUTS)) == (
        "1908743690cb643c9eae414b3864ca817e83b607c8d1ae4a6e2cba0c4e999e94")
    assert bits_digest(std_normal_pdf(KERNEL_INPUTS)) == (
        "719a76df8d123fcc1cc49a84465bffb6c714814150cbc801fe0e15e97f1c4c04")
    zero_d = [np.array(x) for x in KERNEL_INPUTS[::1000].tolist() + SPECIAL]
    cdf, pdf = [std_normal_cdf(x) for x in zero_d], [std_normal_pdf(x) for x in zero_d]
    assert all(type(v) is float for v in cdf + pdf)
    assert bits_digest(cdf, pdf) == (
        "6769199cc7506112ca5c1ec79bdb7f46d597488e860eb340b6c4a5e0558bafdb")


def test_upper_quantile_median():
    assert upper_quantile(0.5) == 0.0


def test_upper_quantile_of_mass_above_one_is_minus_infinity():
    assert upper_quantile(1.5) == -np.inf
    assert upper_quantile(1.0) == -np.inf


def test_upper_quantile_rejects_nonpositive():
    with pytest.raises(ValueError):
        upper_quantile(0.0)
    with pytest.raises(ValueError):
        upper_quantile(-0.1)


def test_upper_quantile_at_025():
    z = upper_quantile(0.025)
    assert abs(z - 1.959964) < 1e-6
    assert abs(z - bisect_cdf_inverse(0.975)) < 1e-9


def test_quantile_round_trip_on_log_grid():
    p = np.geomspace(1e-6, 0.5, 200)
    p = np.concatenate([p, 1.0 - p])
    z = upper_quantile(p)
    assert np.max(np.abs(std_normal_cdf(z) - (1.0 - p))) <= 1e-9


@given(st.floats(min_value=1e-300, max_value=1.0 - 2.0**-53))
def test_quantile_matches_bisection_oracle(p):
    # the upper half goes through 1 - p, exact there (Sterbenz), because
    # the CDF near 1 resolves z only to ~1e-16 / pdf(z)
    ref = bisect_cdf_inverse(p) if p <= 0.5 else -bisect_cdf_inverse(1.0 - p)
    assert std_normal_quantile(p) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_quantile_rejects_closed_endpoints():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


def test_quantile_vectorized_matches_scalar():
    p = np.array([1e-5, 0.3, 0.5, 0.9, 1.0 - 1e-5])
    vec = std_normal_quantile(p)
    for pi, zi in zip(p, vec):
        assert std_normal_quantile(float(pi)) == zi


def test_upper_quantile_mixed_array():
    out = upper_quantile(np.array([0.5, 1.0, 2.0, 0.025]))
    assert out[0] == 0.0
    assert out[1] == -np.inf and out[2] == -np.inf
    assert abs(out[3] - 1.9599639845400545) < 1e-9


def test_quantiles_reject_nan():
    nan = float("nan")
    for quantile in (std_normal_quantile, upper_quantile):
        for bad in (nan, np.float64(nan), np.array(nan), np.array([0.3, nan])):
            with pytest.raises(ValueError):
                quantile(bad)


def outcome(function, x):
    """What ``function(x)`` gives, as comparable bits or the error raised."""
    try:
        value = function(x)
    except ValueError as exc:
        return "ValueError", str(exc)
    return np.asarray(value, dtype=float).reshape(-1).tobytes()


def assert_scalar_path_matches_arrays(function, x):
    """A float, an np.float64, a 0-d and a 1-element array give the same
    bits or the same error; the first three give a Python float."""
    forms = (float(x), np.float64(x), np.array(x), np.array([x]))
    outcomes = [outcome(function, form) for form in forms]
    assert outcomes[1:] == outcomes[:-1]
    if not isinstance(outcomes[0], tuple):
        assert all(type(function(form)) is float for form in forms[:3])


@given(st.floats())
@example(5e-324)
@example(0.5)
@example(1.0 - 2.0**-53)
@example(1.0)
@example(float("nan"))
def test_quantile_scalar_path_matches_array_path(p):
    assert_scalar_path_matches_arrays(std_normal_quantile, p)
    assert_scalar_path_matches_arrays(upper_quantile, p)


def test_upper_quantile_median_is_negative_zero_on_every_path():
    for form in (0.5, np.float64(0.5), np.array(0.5), np.array([0.5])):
        assert np.signbit(upper_quantile(form))


@given(st.floats(min_value=-40.0, max_value=40.0))
def test_cdf_scalar_path_matches_array_path(x):
    assert_scalar_path_matches_arrays(std_normal_cdf, x)


def run_fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter that imports this ``eihlab`` and
    return the JSON value it prints."""
    src = str(Path(eihlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("SCIPY_ARRAY_API", None)  # array-API mode exports wrappers, not the ufuncs
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_skips_the_scipy_special_package_init():
    loaded = run_fresh_interpreter("""
        import json, sys
        import eihlab, eihlab.cli
        heavy = ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")
        print(json.dumps(sorted(name for name in sys.modules
                                if name in heavy or name.startswith(tuple(h + "." for h in heavy)))))
    """)
    assert loaded == []


def test_import_loads_no_thread_pool_or_polynomial_modules():
    # a pool of two or more threads, and a quadrature rule, import them
    loaded = run_fresh_interpreter("""
        import json, sys
        import eihlab, eihlab.cli
        print(json.dumps(sorted(set(sys.modules) & {
            "concurrent.futures", "logging", "numpy.polynomial"})))
    """)
    assert loaded == []


@pytest.mark.parametrize("first", ["import eihlab", "import scipy.special"])
def test_ufuncs_are_scipy_special_exports_in_either_import_order(first):
    report = run_fresh_interpreter(f"""
        import json, pickle
        {first}
        import eihlab, eihlab.cli
        from eihlab import normal
        pickled = [pickle.loads(pickle.dumps(f)) is f for f in (normal.erfc, normal.ndtri)]
        import numpy as np, scipy.special, scipy.stats
        from scipy.special import _ufuncs_cxx
        print(json.dumps(dict(
            same=[normal.erfc is scipy.special.erfc, normal.ndtri is scipy.special.ndtri],
            pickled=pickled,
            ks=scipy.stats.kstest(normal.ndtri((np.arange(1000) + 0.5) / 1000), "norm").statistic,
            ellip_harm=scipy.special.ellip_harm(5.0, 8.0, 1, 1, 2.5),
            legendre_p=float(np.squeeze(scipy.special.legendre_p(2, 0.5))),
            cxx=_ufuncs_cxx.__name__,
        )))
    """)
    assert report["same"] == [True, True]
    assert report["pickled"] == [True, True]
    assert report["ks"] < 1e-3
    assert report["ellip_harm"] == 2.5
    assert report["legendre_p"] == -0.125
    assert report["cxx"] == "scipy.special._ufuncs_cxx"


def test_failed_private_load_falls_back_to_the_public_import():
    report = run_fresh_interpreter("""
        import json, sys

        def unexecuted(module):
            return module is not None and "__builtins__" not in vars(module)

        class RefusePrivateLoad:
            refused = 0

            def find_spec(self, name, path=None, target=None):
                if name == "scipy.special._ufuncs" and unexecuted(sys.modules.get("scipy.special")):
                    RefusePrivateLoad.refused += 1
                    raise ImportError("refused under the placeholder")
                return None

        sys.meta_path.insert(0, RefusePrivateLoad())
        import eihlab
        from eihlab import normal
        special = sys.modules["scipy.special"]
        print(json.dumps(dict(
            refused=RefusePrivateLoad.refused,
            real=not unexecuted(special) and hasattr(special, "ellip_harm"),
            same=[normal.erfc is special.erfc, normal.ndtri is special.ndtri],
        )))
    """)
    assert report == dict(refused=1, real=True, same=[True, True])
