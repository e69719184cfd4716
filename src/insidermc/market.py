"""Market parameters, regime classification and the insider's bet threshold.

The market is the classical bond/stock pair on a horizon ``[0, T]``:

    dS0 = rho * S0 * dt                      (riskless bond)
    dS1 = mu * S1 * dt + sigma * S1 * dB_t   (stock, geometric Brownian motion)

A trader puts an initial wealth ``M`` on the bond or on the stock.  An
insider who already knows the terminal stock price puts everything on
whichever unit-price asset ends higher, and that event reduces to a
threshold on the Brownian terminal value::

    {S1_bar(T) > S0_bar(T)}  =  {B_T > a},   a = (rho - mu + sigma^2/2) * T / sigma

The honest optimum, all-in on the asset with the larger rate, is the same
bet at a = -inf (stock) or +inf (bond).  Every module takes a trader's
reading of the bet, (a, wick), from :meth:`Trader.reading`.

Everything here is immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NegativeRateError, NonPositiveError, NotFiniteError

__all__ = [
    "MarketParams",
    "Regime",
    "Trader",
    "validate_params",
    "indicator_threshold",
    "classify_regime",
]


def _require_finite(field: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NotFiniteError(field, value)
    return value


@dataclass(frozen=True)
class MarketParams:
    """The market quintuple (M, rho, mu, sigma, T).

    Attributes
    ----------
    M : float
        Total initial wealth, currency units, > 0.
    rho : float
        Bond interest rate per unit time, >= 0.
    mu : float
        Stock appreciation rate per unit time, >= 0.
    sigma : float
        Stock volatility per square-root unit time, > 0.
    T : float
        Horizon in time units, > 0.

    Rates are admitted down to 0 for degenerate test cases even though the
    model's financial reading wants them strictly positive; see
    :attr:`rate_boundary`.
    """

    M: float
    rho: float
    mu: float
    sigma: float
    T: float

    def __post_init__(self):
        for field in ("M", "rho", "mu", "sigma", "T"):
            object.__setattr__(self, field, _require_finite(field, getattr(self, field)))
        if self.M <= 0:
            raise NonPositiveError("M", self.M)
        if self.rho < 0:
            raise NegativeRateError("rho", self.rho)
        if self.mu < 0:
            raise NegativeRateError("mu", self.mu)
        if self.sigma <= 0:
            raise NonPositiveError("sigma", self.sigma)
        if self.T <= 0:
            raise NonPositiveError("T", self.T)

    @property
    def rate_boundary(self) -> bool:
        """True when rho or mu sits on the admitted-but-degenerate 0 boundary."""
        return self.rho == 0.0 or self.mu == 0.0


class Regime(enum.Enum):
    """Which asset has the larger rate.  Classified by exact comparison:
    the marginal identities are exact identities of the formulas, and an
    epsilon band would misreport orderings near mu == rho."""

    BULL = "bull"      # mu > rho
    BEAR = "bear"      # rho > mu
    MARGINAL = "marginal"  # mu == rho


def validate_params(M: float, rho: float, mu: float, sigma: float, T: float) -> MarketParams:
    """Validate the raw quintuple and return an immutable :class:`MarketParams`.

    Raises
    ------
    NonPositiveError
        If M, sigma or T is <= 0.
    NegativeRateError
        If rho or mu is < 0.
    NotFiniteError
        For NaN or infinite input.
    """
    return MarketParams(M=M, rho=rho, mu=mu, sigma=sigma, T=T)


def indicator_threshold(p: MarketParams) -> float:
    """Level ``a`` with {stock ends above bond} == {B_T > a}.

    ``a = (rho - mu + sigma^2/2) * T / sigma``.  Negative in a strong bull
    market (the insider almost always bets the stock), positive in a strong
    bear market.
    """
    return (p.rho - p.mu + 0.5 * p.sigma * p.sigma) * p.T / p.sigma


class Trader(enum.Enum):
    """Which wealth model an estimator samples."""

    HONEST_OPTIMAL = "honest-optimal"
    FORWARD_INSIDER = "forward-insider"
    SKOROKHOD_UNBIASED = "skorokhod-unbiased"

    def reading(self, p: MarketParams) -> tuple[float, bool]:
        """(a, wick): the level at which this trader bets on B_T, and whether
        its stock event is shifted by sigma T (the Skorokhod reading).

        The honest level is blind to B_T: -inf in a bull market (all-in on
        the stock), +inf otherwise (all-in on the bond)."""
        if self is Trader.HONEST_OPTIMAL:
            return (-math.inf if classify_regime(p) is Regime.BULL else math.inf), False
        return indicator_threshold(p), self is Trader.SKOROKHOD_UNBIASED


def classify_regime(p: MarketParams) -> Regime:
    """BULL iff mu > rho, BEAR iff rho > mu, MARGINAL iff mu == rho exactly."""
    if p.mu > p.rho:
        return Regime.BULL
    if p.rho > p.mu:
        return Regime.BEAR
    return Regime.MARGINAL

