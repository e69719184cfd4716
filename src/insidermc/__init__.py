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

Only the Monte Carlo side needs numpy, the one runtime dependency, so
``import insidermc`` does not load it: the errors, the market, the closed
forms and the scalar special functions import eagerly (the inverse normal
CDF, the package's own, loads numpy at its first call), while the exports
of ``sampling``,
``montecarlo``, ``report`` and ``verify``, and those submodules and
``samplers`` themselves, resolve on first access.
"""

import importlib

__version__ = "0.1.0"
# The master seed of every command that draws.
DEFAULT_SEED = 42

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
    Trader,
    indicator_threshold,
    validate_params,
)
from .special import erf, inverse_normal_cdf, normal_cdf
from .closedform import (
    ClosedFormReport,
    compare_closed_form,
    expected_wealth,
)

# The Monte Carlo side's exports by home module, each imported on first access.
_LAZY = {
    "sampling": ("RngStream", "standard_normal_block", "derive_seed"),
    "montecarlo": ("MCEstimate", "estimate_mean", "estimate_euler_mean",
                   "skorokhod_factorized_estimate", "z_score"),
    "report": ("ComparisonRow", "ConvergenceRow", "run_compare", "run_sweep",
               "run_convergence"),
    "verify": ("run_verify",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("sampling", "samplers", "montecarlo", "report", "verify")


def __getattr__(name):
    # Called only for names not bound yet.  An export is looked up in its
    # home module on every access, so it is always that module's object.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


__all__ = [
    "__version__", "DEFAULT_SEED",
    # errors
    "ParameterError", "NonPositiveError", "NegativeRateError", "NotFiniteError",
    "OutOfDomainError", "BadSampleCountError", "UnknownTraderError",
    "WealthOverflowError", "IndexOverflowError", "DegenerateEstimateError",
    # market
    "MarketParams", "Regime", "Trader", "validate_params", "indicator_threshold",
    # special functions
    "erf", "normal_cdf", "inverse_normal_cdf",
    # closed forms
    "ClosedFormReport", "expected_wealth", "compare_closed_form",
    # the lazy Monte Carlo exports
    *_HOME,
]
