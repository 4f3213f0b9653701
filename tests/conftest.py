from functools import cached_property

import numpy as np
import pytest
from hypothesis import settings

from eihlab.market import MarketParams

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")

# one line per acceptance criterion, replayed after the run summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Reference parameter set used throughout: a 10% / 15.8% vol pair on two
# drivers with a 10-year horizon.
SET_A = dict(
    mu_i=0.06,
    mu_s=0.05,
    sigma_i=(0.15, 0.05),
    sigma_s=(0.25, -0.10),
    r=0.02,
    t=10.0,
)


@pytest.fixture
def set_a() -> MarketParams:
    return MarketParams(**SET_A)


def make_degenerate_equal_sigmas(params: MarketParams) -> MarketParams:
    """Test-only hook: force sigma_s = sigma_i, bypassing the constructor
    guard (the public path rejects equal vectors).  The geometry that the
    constructor cached for the old sigma_s is dropped, so that it is
    recomputed from the equal pair."""
    clone = MarketParams(
        mu_i=params.mu_i, mu_s=params.mu_i,
        sigma_i=params.sigma_i, sigma_s=params.sigma_s,
        r=params.r, t=params.t,
    )
    object.__setattr__(clone, "sigma_s", params.sigma_i.copy())
    for name, attr in vars(MarketParams).items():
        if isinstance(attr, cached_property):
            clone.__dict__.pop(name, None)
    return clone


def random_market(rng: np.random.Generator, d: int | None = None) -> MarketParams:
    """Valid random parameter set for property-style loops."""
    d = d or int(rng.integers(2, 5))
    while True:
        sigma_i = rng.uniform(-0.5, 0.5, size=d)
        sigma_s = rng.uniform(-0.5, 0.5, size=d)
        if (np.linalg.norm(sigma_i) > 1e-3 and np.linalg.norm(sigma_s) > 1e-3
                and np.linalg.norm(sigma_i - sigma_s) > 1e-3):
            break
    return MarketParams(
        mu_i=rng.uniform(-0.1, 0.2),
        mu_s=rng.uniform(-0.1, 0.2),
        sigma_i=sigma_i,
        sigma_s=sigma_s,
        r=rng.uniform(0.0, 0.1),
        t=rng.uniform(0.5, 100.0),
    )
