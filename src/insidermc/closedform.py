"""Closed-form expected terminal wealth for the honest trader and for the
insider under the two anticipating noise interpretations, plus regime-aware
ordering checks.

With ``Phi`` the standard normal CDF, each expectation is the mean of the
trader kernel of :mod:`~insidermc.samplers` betting at a:

    E[S(T)] = M Phi(a/sqrt(T)) e^{rho T} + M Phi(s - a/sqrt(T)) e^{mu T}

with a = ``honest_threshold(p)`` for the honest trader (-inf or +inf, which
gives M e^{max(rho, mu) T}) and a = ``indicator_threshold(p)`` for the
insider, and s = sigma sqrt(T) except under the Skorokhod (Wick) reading,
where s = 0.  Under the stock measure B_T has mean sigma T, so the forward
(Russo-Vallois) stock leg keeps the covariance between the bet and the stock
growth; the Wick reading shifts the stock event by exactly sigma T, which
cancels it: its stock leg is the bet probability times the plain GBM mean.

Internally everything is evaluated in the Phi parametrization (probabilities
in [0, 1], no cancellation in (1 - erf)/2); the equivalent erf forms are
exposed for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _sc

from .errors import EXP_MAX, WealthOverflowError
from .market import MarketParams, Regime, classify_regime, honest_threshold, indicator_threshold
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


def _kernel_mean(p: MarketParams, a: float, wick: bool) -> float:
    """E[S(T)] of the trader kernel betting at a, Wick reading or not."""
    _check_exp_range(p)
    at = a / math.sqrt(p.T)
    s = 0.0 if wick else p.sigma * math.sqrt(p.T)
    return _finite(p.M * (
        normal_cdf(at) * math.exp(p.rho * p.T) + normal_cdf(s - at) * math.exp(p.mu * p.T)
    ))


def honest_expected_wealth(p: MarketParams) -> float:
    """E[S(T)] = M e^{max(rho, mu) T}: all of M on the asset with the larger rate.

    In the marginal regime every split has the same expectation.
    """
    return _kernel_mean(p, honest_threshold(p), False)


def skorokhod_expected_wealth(p: MarketParams) -> float:
    """Insider expectation under the Skorokhod (Wick) interpretation."""
    return _kernel_mean(p, indicator_threshold(p), True)


def forward_expected_wealth(p: MarketParams) -> float:
    """Insider expectation under the Russo-Vallois forward interpretation."""
    return _kernel_mean(p, indicator_threshold(p), False)


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

    at = indicator_threshold(p) / math.sqrt(p.T)
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
