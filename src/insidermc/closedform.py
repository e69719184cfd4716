"""Closed-form expected terminal wealth for the honest trader and for the
insider under the two anticipating noise interpretations, plus the
ordering verdict of the regime.

``expected_wealth(trader, p)`` is the one closed form per trader.  With
``Phi`` the standard normal CDF, it is the mean of the trader kernel of
:mod:`~insidermc.samplers` betting at the trader's ``Trader.reading(p)``,
(a, wick):

    E[S(T)] = M Phi(a/sqrt(T)) e^{rho T} + M Phi(s - a/sqrt(T)) e^{mu T}

with s = sigma sqrt(T), or 0 under the Skorokhod (Wick) reading.
Under the stock measure B_T has mean sigma T, so the forward
(Russo-Vallois) stock leg keeps the covariance between the bet and the stock
growth; the Wick reading shifts the stock event by exactly sigma T, which
cancels it: its stock leg is the bet probability times the plain GBM mean.

Everything is evaluated in the Phi parametrization (probabilities in
[0, 1], no cancellation in (1 - erf)/2) through :mod:`~insidermc.special`'s
``normal_cdf``, the one home of Phi and its accurate lower tail: no closed
form loads scipy.  The ordering of the three is the paper's theorem, decided
from the regime, not from the evaluated values (``ClosedFormReport``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EXP_MAX, WealthOverflowError
from .market import MarketParams, Regime, Trader, classify_regime
from .special import normal_cdf

__all__ = [
    "ClosedFormReport",
    "expected_wealth",
    "compare_closed_form",
]

# Relative tolerance for the marginal-regime identity E[S^sk] == E[S^i].
MARGINAL_RTOL = 1e-12


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


def expected_wealth(trader: Trader, p: MarketParams) -> float:
    """E[S(T)] of ``trader``: the kernel's mean at the trader's reading.

    - Honest: a = -inf (bull) or +inf (bear, marginal), which gives
      M e^{max(rho, mu) T}, all of M on the asset with the larger rate.  In
      the marginal regime every split has the same expectation.
    - Forward (Russo-Vallois) insider: a = ``indicator_threshold(p)``.
    - Skorokhod (Wick) insider: the same a, with the stock event shifted by
      sigma T.
    """
    return _kernel_mean(p, *trader.reading(p))


@dataclass(frozen=True)
class ClosedFormReport:
    """The three expectations, the honest one all-in on the larger rate, plus
    the ordering verdict for the classified regime.

    ``ordering_pass`` is the paper's theorem, E[S^sk] < E[S^i] < E[S^rs]
    off the margin and E[S^sk] = E[S^i] < E[S^rs] on it, which holds at every
    valid point.  With x = a/sqrt(T), s = sigma sqrt(T) > 0 and R = Phi/phi
    the Mills ratio, the insider's threshold gives (mu - rho) T = s^2/2 - x s
    exactly, so

    - bull: rs - i = M e^{rho T} phi(x) (R(x) - R(x - s)),
    - bear: rs - i = M e^{mu T} phi(s - x) (R(s - x) - R(-x)),
    - marginal: rs - i = M e^{rho T} erf(s / (2 sqrt(2))),

    all > 0 since R is strictly increasing, and i - sk = M Phi(+-x)
    |e^{mu T} - e^{rho T}|, > 0 exactly when ``classify_regime`` finds mu !=
    rho.  Nothing is left to decide numerically but the marginal identity
    sk == i on the evaluated forms, within ``MARGINAL_RTOL``; comparing the
    evaluated forms elsewhere would ask their rounding to resolve gaps far
    below an ulp.
    """

    params: MarketParams
    regime: Regime
    honest_optimal: float
    skorokhod: float
    forward: float

    @property
    def ordering_pass(self) -> bool:
        gap = abs(self.skorokhod - self.honest_optimal)
        return self.regime is not Regime.MARGINAL or gap <= MARGINAL_RTOL * self.honest_optimal


def compare_closed_form(p: MarketParams) -> ClosedFormReport:
    """Evaluate all three expectations and classify the regime."""
    return ClosedFormReport(
        params=p,
        regime=classify_regime(p),
        honest_optimal=expected_wealth(Trader.HONEST_OPTIMAL, p),
        skorokhod=expected_wealth(Trader.SKOROKHOD_UNBIASED, p),
        forward=expected_wealth(Trader.FORWARD_INSIDER, p),
    )
