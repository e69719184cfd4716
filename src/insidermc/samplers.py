"""Pathwise terminal-wealth samplers for every trader model.

Each sampler maps a block of Brownian draws (terminal values b = B_T, or
path increments for the Euler scheme) to the matching realizations of S(T);
the sample mean over the stream must reproduce the matching closed form,
which is what the estimator harness and the acceptance battery check.

All three traders are one kernel: M on the bond where b <= a, M on the
stock where b - shift > a, exactly 0 between.  The insider bets at the
threshold a = :func:`~insidermc.market.indicator_threshold`; the honest
trader ignores b_T, which is the same bet at a = -inf (bull: all-in on the
stock) or a = +inf (bear and marginal: all-in on the bond).

The Skorokhod model needs a word of caution.  Its solution is a Wick
product, which has no pathwise reading, so :func:`skorokhod_unbiased_values`
is a translation-form estimator built from the Gaussian shift identity
``E[f(B_T) exp(sigma B_T - sigma^2 T / 2)] = E[f(B_T + sigma T)]`` applied
in reverse to the stock leg:

    value = M 1{b <= a} e^{rho T}
          + M 1{b - sigma T > a} exp((mu - sigma^2/2) T + sigma b)

Its expectation over b ~ N(0, T) equals the Skorokhod closed form (certified
against it, not asserted): the shifted indicator turns back into
Pr{B_T > a} times the plain GBM mean, which is the Wick factorization.  So
it is the forward sample with its stock event shifted from {b > a} to
{b - sigma T > a}: the kernel with shift sigma T, where the forward and
honest samplers use shift 0.  The shift is the dead zone
a < b <= a + sigma T, where the sample is exactly 0, the pathwise face of
the model's financial paradox; its mass is tracked.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import EXP_MAX, OutOfDomainError, WealthOverflowError
from .market import MarketParams, Regime, classify_regime, indicator_threshold

__all__ = [
    "Trader",
    "honest_ignores_draws",
    "honest_values",
    "forward_insider_values",
    "skorokhod_unbiased_values",
    "forward_euler_values",
]


class Trader(enum.Enum):
    """Which wealth model an estimator samples."""

    HONEST_OPTIMAL = "honest-optimal"
    FORWARD_INSIDER = "forward-insider"
    SKOROKHOD_UNBIASED = "skorokhod-unbiased"


def _bond_value(p: MarketParams, m0: float) -> float:
    """The bond leg m0 e^{rho T}, the one home of the bond's range guard."""
    bond = m0 * math.exp(p.rho * p.T) if p.rho * p.T <= EXP_MAX else math.inf
    if math.isinf(bond):
        raise WealthOverflowError(f"bond leg {m0!r} e^(rho*T) exceeds the double range")
    return bond


def _stock_values(p: MarketParams, m1: float, b_t: np.ndarray) -> np.ndarray:
    """The stock leg m1 exp((mu - sigma^2/2) T + sigma b), exponent and
    amount guarded.

    Computed in place over the caller's own array; each step only swaps the
    operands of an IEEE add or multiply, so the bits are the plain formula's.
    """
    b_t *= p.sigma
    b_t += (p.mu - 0.5 * p.sigma * p.sigma) * p.T
    if b_t.size and float(b_t.max()) > EXP_MAX:
        raise WealthOverflowError(f"stock exponent exceeds the double range ({EXP_MAX})")
    np.exp(b_t, out=b_t)
    try:
        with np.errstate(over="raise"):
            b_t *= m1
    except FloatingPointError:
        raise WealthOverflowError(f"stock leg of {m1!r} exceeds the double range") from None
    return b_t


def _insider_values(p: MarketParams, b_t: np.ndarray, a: float, shift: float) -> np.ndarray:
    """M on the bond where b <= a, on the stock where b - shift > a, exactly
    0 between; built in the array that first holds b - shift, never in b_t."""
    bond = _bond_value(p, p.M)
    b_t = np.asarray(b_t, dtype=np.float64)
    values = np.subtract(b_t, shift)
    stock = values > a
    if stock.all():  # every honest bull block: skip the gather and scatter
        np.copyto(values, b_t)
        return _stock_values(p, p.M, values)
    np.multiply(b_t <= a, bond, out=values)
    if stock.any():
        values[stock] = _stock_values(p, p.M, b_t[stock])
    return values


def honest_ignores_draws(p: MarketParams) -> bool:
    """True off the bull regime, where the honest bet is all-in on the bond:
    every value is then M e^{rho T}, the same bits for any finite b."""
    return classify_regime(p) is not Regime.BULL


def honest_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized honest terminal wealth: all of M on the asset with the
    larger rate, the insider kernel at a = -inf (bull) or +inf (otherwise)."""
    a = math.inf if honest_ignores_draws(p) else -math.inf
    return _insider_values(p, b_t, a, 0.0)


def forward_insider_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized forward-model insider wealth.

    All of M rides the stock when b > a, the bond otherwise; the boundary
    b == a goes to the bond: the insider kernel with no shift.
    """
    return _insider_values(p, b_t, indicator_threshold(p), 0.0)


def skorokhod_unbiased_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized translation-form Skorokhod sample (see module docstring):
    the insider kernel shifted by sigma T, exactly 0 on a < b <= a + sigma T.
    """
    return _insider_values(p, b_t, indicator_threshold(p), p.sigma * p.T)


def forward_euler_values(
    p: MarketParams, increments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler discretization of the forward-model stock leg.

    ``increments`` has shape (n_paths, n_steps).  The terminal value
    b_T = sum of increments decides the anticipating initial condition; the
    stock leg is S1 = M prod_k (1 + mu dt + sigma dB_k), formed left to right
    by one ``multiply.accumulate`` per row, so every partial product is the
    one an explicit step loop would form; the bond leg uses the exact ODE
    solution.  A partial product below 0 is a coarse-grid artifact: the path
    is clamped at 0 from that step on and flagged, so convergence studies can
    watch the clamp count vanish as dt -> 0.

    Returns (values, clamped) with ``clamped`` a boolean mask per path.
    Raises WealthOverflowError when a stock-leg product leaves the double
    range before its path is clamped.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] < 1:
        raise OutOfDomainError("increments must have shape (n_paths, n_steps >= 1)")
    bond = _bond_value(p, p.M)
    n_steps = increments.shape[1]
    stock_on = increments.sum(axis=1) > indicator_threshold(p)

    with np.errstate(over="ignore", invalid="ignore"):
        s1 = p.sigma * increments
        s1 += 1.0 + p.mu * (p.T / n_steps)
        s1[:, 0] *= p.M
        np.multiply.accumulate(s1, axis=1, out=s1)
    negative = s1 < 0.0
    clamped = stock_on & negative.any(axis=1)
    # inf and nan absorb every later factor, so a path overflowed iff its last
    # product is not finite; it counts unless a clamp came strictly first.
    overflowed = stock_on & ~np.isfinite(s1[:, -1])
    if overflowed.any() and _overflow_precedes_clamp(s1[overflowed], negative[overflowed]):
        raise WealthOverflowError("Euler stock-leg product exceeds the double range")
    stock = np.where(stock_on & ~clamped, s1[:, -1], 0.0)
    values = np.where(stock_on, 0.0, bond) + stock
    return values, clamped


def _overflow_precedes_clamp(products: np.ndarray, negative: np.ndarray) -> bool:
    first_bad = np.argmax(~np.isfinite(products), axis=1)
    first_clamp = np.where(negative.any(axis=1), np.argmax(negative, axis=1), products.shape[1])
    return bool((first_bad <= first_clamp).any())
