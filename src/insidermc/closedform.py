"""Closed-form expected terminal wealth for the honest trader and for the
insider under the two anticipating noise interpretations, plus regime-aware
ordering checks.

With ``a = indicator_threshold(p)`` and ``Phi`` the standard normal CDF:

    honest      E[S(T)] = M e^{max(rho, mu) T}
    Skorokhod   E[S(T)] = M Phi(a/sqrt(T)) e^{rho T} + M Phi(-a/sqrt(T)) e^{mu T}
    forward     E[S(T)] = M Phi(a/sqrt(T)) e^{rho T}
                          + M Phi(sigma sqrt(T) - a/sqrt(T)) e^{mu T}

The honest optimum is all of M on the asset with the larger rate: the
insider's bet with a threshold that ignores B_T.  The Skorokhod solution
carries a Wick product whose expectation factorizes, which is why its stock
leg is only the bet probability times the plain GBM mean; the forward
(Russo-Vallois) solution keeps the classical Ito form, so its stock leg keeps
the covariance between the bet and the stock growth.

Internally everything is evaluated in the Phi parametrization (probabilities
in [0, 1], no cancellation in (1 - erf)/2); the equivalent erf forms are
exposed for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _sc

from .errors import EXP_MAX, WealthOverflowError
from .market import MarketParams, Regime, classify_regime, indicator_threshold
from .special import erf, normal_cdf

__all__ = [
    "ClosedFormReport",
    "honest_expected_wealth",
    "skorokhod_expected_wealth",
    "forward_expected_wealth",
    "skorokhod_expected_wealth_erf_form",
    "forward_expected_wealth_erf_form",
    "compare_closed_form",
]

# Relative tolerance for the marginal-regime identity E[S^sk] == E[S^i].
MARGINAL_RTOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def _check_exp_range(p: MarketParams) -> None:
    if p.rho * p.T > EXP_MAX or p.mu * p.T > EXP_MAX:
        raise WealthOverflowError(
            f"rho*T = {p.rho * p.T!r} or mu*T = {p.mu * p.T!r} exceeds the "
            f"double exponential range ({EXP_MAX})"
        )
    if math.isinf(p.M * math.exp(max(p.rho, p.mu) * p.T)):
        raise WealthOverflowError(f"M e^(max(rho, mu) T) exceeds the double range (M = {p.M!r})")


def _finite(wealth: float) -> float:
    """An expectation that passes the range check can still round its sum
    of two legs up to inf; that is an overflow, never a value."""
    if math.isinf(wealth):
        raise WealthOverflowError("expected wealth exceeds the double range")
    return wealth


def honest_expected_wealth(p: MarketParams) -> float:
    """E[S(T)] = M e^{max(rho, mu) T}: all of M on the asset with the larger rate.

    In the marginal regime every split has the same expectation.
    """
    _check_exp_range(p)
    return p.M * math.exp(max(p.rho, p.mu) * p.T)


def _threshold_scaled(p: MarketParams) -> float:
    """a / sqrt(T): the threshold for the standardized terminal value."""
    return indicator_threshold(p) / math.sqrt(p.T)


def skorokhod_expected_wealth(p: MarketParams) -> float:
    """Insider expectation under the Skorokhod (Wick) interpretation."""
    _check_exp_range(p)
    at = _threshold_scaled(p)
    return _finite(p.M * (
        normal_cdf(at) * math.exp(p.rho * p.T) + normal_cdf(-at) * math.exp(p.mu * p.T)
    ))


def forward_expected_wealth(p: MarketParams) -> float:
    """Insider expectation under the Russo-Vallois forward interpretation."""
    _check_exp_range(p)
    at = _threshold_scaled(p)
    s = p.sigma * math.sqrt(p.T)
    return _finite(p.M * (
        normal_cdf(at) * math.exp(p.rho * p.T) + normal_cdf(s - at) * math.exp(p.mu * p.T)
    ))


def skorokhod_expected_wealth_erf_form(p: MarketParams) -> float:
    """The Skorokhod expectation written with erf, as usually displayed:

    (M/2){1 + erf[(sigma^2+2rho-2mu) sqrt(T) / (2 sqrt(2) sigma)]} e^{rho T}
    + (M/2){1 - erf[...same...]} e^{mu T}
    """
    _check_exp_range(p)
    arg = (p.sigma**2 + 2 * p.rho - 2 * p.mu) * math.sqrt(p.T) / (_TWO_SQRT2 * p.sigma)
    e = erf(arg)
    return _finite(0.5 * p.M * (
        (1.0 + e) * math.exp(p.rho * p.T) + (1.0 - e) * math.exp(p.mu * p.T)
    ))


def forward_expected_wealth_erf_form(p: MarketParams) -> float:
    """The forward expectation written with erf, as usually displayed:

    (M/2){1 + erf[(sigma^2+2rho-2mu) sqrt(T) / (2 sqrt(2) sigma)]} e^{rho T}
    + (M/2){1 + erf[(sigma^2-2rho+2mu) sqrt(T) / (2 sqrt(2) sigma)]} e^{mu T}
    """
    _check_exp_range(p)
    arg_bond = (p.sigma**2 + 2 * p.rho - 2 * p.mu) * math.sqrt(p.T) / (_TWO_SQRT2 * p.sigma)
    arg_stock = (p.sigma**2 - 2 * p.rho + 2 * p.mu) * math.sqrt(p.T) / (_TWO_SQRT2 * p.sigma)
    return _finite(0.5 * p.M * (
        (1.0 + erf(arg_bond)) * math.exp(p.rho * p.T)
        + (1.0 + erf(arg_stock)) * math.exp(p.mu * p.T)
    ))


def _log_normal_cdf(x: float) -> float:
    """log Phi(x), stable for any finite x (no underflow in the lower tail)."""
    if x <= 0.0:
        # Phi(x) = 0.5 * erfcx(-x/sqrt(2)) * exp(-x^2/2)
        return math.log(0.5 * float(_sc.erfcx(-x * _INV_SQRT2))) - 0.5 * x * x
    return math.log1p(-normal_cdf(-x))


@dataclass(frozen=True)
class ClosedFormReport:
    """The three expectations, the honest one all-in on the larger rate, plus
    the ordering verdict for the classified regime.

    ``sk_ok`` is E[S^sk] < E[S^i] (bull/bear) or |E[S^sk] - E[S^i]| within
    1e-12 relative (marginal); ``rs_ok`` is E[S^i] < E[S^rs] strictly.  The
    strict flags are computed from cancellation-free margin expressions, so
    they stay decidable where the plain subtraction of two near-equal
    expectations would round to zero.
    """

    params: MarketParams
    regime: Regime
    honest_optimal: float
    skorokhod: float
    forward: float
    sk_ok: bool
    rs_ok: bool

    @property
    def ordering_pass(self) -> bool:
        return self.sk_ok and self.rs_ok


def compare_closed_form(p: MarketParams) -> ClosedFormReport:
    """Evaluate all three expectations and the regime's ordering flags."""
    regime = classify_regime(p)
    honest = honest_expected_wealth(p)
    sk = skorokhod_expected_wealth(p)
    rs = forward_expected_wealth(p)

    at = _threshold_scaled(p)
    s = p.sigma * math.sqrt(p.T)
    if regime is Regime.BULL:
        # i - sk = M Phi(at) (e^{mu T} - e^{rho T}); Phi(at) > 0 for finite at.
        sk_ok = p.mu * p.T > p.rho * p.T
        # rs - i = M [Phi(at) e^{rho T} - Phi(at - s) e^{mu T}], compared in logs.
        rs_ok = _log_normal_cdf(at) + p.rho * p.T > _log_normal_cdf(at - s) + p.mu * p.T
    elif regime is Regime.BEAR:
        # i - sk = M Phi(-at) (e^{rho T} - e^{mu T})
        sk_ok = p.rho * p.T > p.mu * p.T
        # rs - i = M [Phi(s - at) e^{mu T} - Phi(-at) e^{rho T}]
        rs_ok = _log_normal_cdf(s - at) + p.mu * p.T > _log_normal_cdf(-at) + p.rho * p.T
    else:
        sk_ok = abs(sk - honest) <= MARGINAL_RTOL * honest
        # rs - i = M e^{rho T} erf(sigma sqrt(T) / (2 sqrt(2)))
        rs_ok = erf(s / _TWO_SQRT2) > 0.0

    return ClosedFormReport(
        params=p,
        regime=regime,
        honest_optimal=honest,
        skorokhod=sk,
        forward=rs,
        sk_ok=sk_ok,
        rs_ok=rs_ok,
    )
