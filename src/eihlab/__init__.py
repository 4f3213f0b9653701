"""eihlab: a simulation and verification lab for index-efficiency bounds.

Closed-form pricing of index-numeraire digital claims, exact samplers
for a two-security geometric Brownian market, prudent index-beating
strategies built from those claims, and Monte Carlo experiments that
certify each probabilistic guarantee at desk scale.
"""

from .analytic import (
    DigitalSpec,
    Direction,
    claim_value,
    digital_price,
    gaussian_halfspace_expectation,
    hedge_ratios,
    thresholds,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    capm_convergence_study,
    hedging_fidelity_study,
    lemma_crosscheck,
    verify,
    wilson_ci,
)
from .market import (
    MarketParams,
    Measure,
    PathBatch,
    ReducedParams,
    TerminalSample,
    reduce_dimension,
    simulate_paths,
    simulate_terminal,
)
from .normal import std_normal_cdf, std_normal_quantile, upper_quantile
from .strategies import (
    BoundReport,
    DigitalComponent,
    PrudentStrategy,
    Side,
    Underlying,
    bound_check,
    build_capm_composite,
    build_index_vs_bond,
    build_one_sided,
    build_two_sided,
    event_one_sided,
    event_recover,
    event_two_sided,
)

__version__ = "0.1.0"
