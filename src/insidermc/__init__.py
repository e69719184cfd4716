"""Insider-trading wealth under three noise interpretations.

A bond/stock market is traded on [0, T] by an honest buy-and-hold trader
and by an insider who already knows the terminal stock price.  The insider's
wealth equation has an anticipating initial condition, so its meaning
depends on the stochastic integral chosen: the Skorokhod (Wick) reading and
the Russo-Vallois forward reading give different expected terminal wealth,
and only the forward one beats the honest trader.  This package provides
the closed-form expectations of all three models, pathwise samplers whose
Monte Carlo means reproduce them, a bit-reproducible estimator harness, and
comparison/sweep/convergence reports.
"""

__version__ = "0.1.0"

from .errors import (
    BadSampleCountError,
    DegenerateEstimateError,
    IndexOverflowError,
    NegativeRateError,
    NonPositiveError,
    NotFiniteError,
    OutOfDomainError,
    ParameterError,
    UnknownTraderError,
    WealthOverflowError,
)
from .market import (
    MarketParams,
    Regime,
    indicator_threshold,
    validate_params,
)
from .special import erf, inverse_normal_cdf, normal_cdf
from .sampling import RngStream, derive_seed, standard_normal_block
from .samplers import Trader
from .closedform import (
    ClosedFormReport,
    compare_closed_form,
    forward_expected_wealth,
    forward_expected_wealth_erf_form,
    honest_expected_wealth,
    skorokhod_expected_wealth,
    skorokhod_expected_wealth_erf_form,
)
from .montecarlo import (
    MCEstimate,
    estimate_euler_mean,
    estimate_mean,
    skorokhod_factorized_estimate,
    z_score,
)
from .report import (
    ComparisonRow,
    ConvergenceRow,
    run_compare,
    run_convergence,
    run_sweep,
)
from .verify import DEFAULT_SEED, run_verify

__all__ = [
    "__version__",
    # errors
    "ParameterError", "NonPositiveError", "NegativeRateError", "NotFiniteError",
    "OutOfDomainError", "BadSampleCountError", "UnknownTraderError",
    "WealthOverflowError", "IndexOverflowError", "DegenerateEstimateError",
    # market
    "MarketParams", "Regime", "validate_params", "indicator_threshold",
    # special functions
    "erf", "normal_cdf", "inverse_normal_cdf",
    # sampling
    "RngStream", "standard_normal_block", "derive_seed",
    # samplers
    "Trader",
    # closed forms
    "ClosedFormReport", "honest_expected_wealth", "skorokhod_expected_wealth",
    "forward_expected_wealth", "skorokhod_expected_wealth_erf_form",
    "forward_expected_wealth_erf_form",
    "compare_closed_form",
    # monte carlo
    "MCEstimate", "estimate_mean", "estimate_euler_mean",
    "skorokhod_factorized_estimate", "z_score",
    # reports
    "ComparisonRow", "ConvergenceRow", "run_compare", "run_sweep", "run_convergence",
    # verification
    "run_verify", "DEFAULT_SEED",
]
