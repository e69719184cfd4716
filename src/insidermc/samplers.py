"""Pathwise terminal-wealth samplers for every trader model.

Each sampler maps a block of Brownian draws (terminal values b = B_T, or
path increments for the Euler scheme) to the matching realizations of S(T);
the sample mean over the stream must reproduce the matching closed form,
which is what the estimator harness and the acceptance battery check.

Every trader is one kernel: M on the bond where b <= a, M on the stock
where b - shift > a, exactly 0 between.  The insider bets at
a = :func:`~insidermc.market.indicator_threshold`, the honest trader at
a = :func:`~insidermc.market.honest_threshold` (-inf or +inf), and the
Euler scheme bets on its row sums with its own stock leg.

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
{b - sigma T > a}: the kernel's Wick reading, shift sigma T, where the
forward and honest samplers use shift 0.  The shift is the dead zone
a < b <= a + sigma T, where the sample is exactly 0, the pathwise face of
the model's financial paradox; its mass is tracked.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import EXP_MAX, OutOfDomainError, WealthOverflowError
from .market import MarketParams, honest_threshold, indicator_threshold

__all__ = [
    "Trader",
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


def _insider_values(p: MarketParams, b_t: np.ndarray, a: float, wick: bool,
                    stock_leg=None) -> np.ndarray:
    """M on the bond where b <= a, on the stock where b - shift > a, exactly
    0 between, shift = sigma T under the Wick reading, else 0; built in the
    array that first holds b - shift, never in b_t.  ``stock_leg(on)`` gives
    the stock values of the rows in the mask ``on`` (default: GBM leg at b)."""
    bond = _bond_value(p, p.M)
    b_t = np.asarray(b_t, dtype=np.float64)
    values = np.subtract(b_t, p.sigma * p.T if wick else 0.0)
    stock = values > a
    if stock_leg is None and stock.all():  # every honest bull block: no gather or scatter
        np.copyto(values, b_t)
        return _stock_values(p, p.M, values)
    np.multiply(b_t <= a, bond, out=values)
    if stock.any():
        values[stock] = stock_leg(stock) if stock_leg else _stock_values(p, p.M, b_t[stock])
    return values


def honest_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized honest terminal wealth: all of M on the asset with the
    larger rate, the insider kernel at :func:`~insidermc.market.honest_threshold`."""
    return _insider_values(p, b_t, honest_threshold(p), False)


def forward_insider_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized forward-model insider wealth.

    All of M rides the stock when b > a, the bond otherwise; the boundary
    b == a goes to the bond: the insider kernel with no shift.
    """
    return _insider_values(p, b_t, indicator_threshold(p), False)


def skorokhod_unbiased_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized translation-form Skorokhod sample (see module docstring):
    the insider kernel shifted by sigma T, exactly 0 on a < b <= a + sigma T.
    """
    return _insider_values(p, b_t, indicator_threshold(p), True)


def forward_euler_values(
    p: MarketParams, increments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler discretization of the forward-model stock leg.

    ``increments`` has shape (n_paths, n_steps).  The forward kernel bets on
    the row sums b_T, with the exact bond leg; its stock leg, formed only on
    the rows whose bet is on, is S1 = M prod_k (1 + mu dt + sigma dB_k), left
    to right by one ``multiply.accumulate`` per row, so every partial product
    is the one an explicit step loop would form.  A partial product below 0
    is a coarse-grid artifact: the path is clamped at 0 from that step on and
    flagged, so convergence studies can watch the clamp count vanish as
    dt -> 0.

    Returns (values, clamped) with ``clamped`` a boolean mask per path.
    Raises WealthOverflowError when a stock-leg product leaves the double
    range before its path is clamped.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] < 1:
        raise OutOfDomainError("increments must have shape (n_paths, n_steps >= 1)")
    clamped = np.zeros(increments.shape[0], dtype=bool)

    def euler_leg(on: np.ndarray) -> np.ndarray:
        s1 = increments[on]
        with np.errstate(over="ignore", invalid="ignore"):
            s1 *= p.sigma
            s1 += 1.0 + p.mu * (p.T / s1.shape[1])
            s1[:, 0] *= p.M
            np.multiply.accumulate(s1, axis=1, out=s1)
        negative = s1 < 0.0
        clamped[on] = hit = negative.any(axis=1)
        # inf and nan absorb every later factor, so a path overflowed iff its
        # last product is not finite; it counts unless a clamp came strictly first.
        overflowed = ~np.isfinite(s1[:, -1])
        if overflowed.any() and _overflow_precedes_clamp(s1[overflowed], negative[overflowed]):
            raise WealthOverflowError("Euler stock-leg product exceeds the double range")
        # + 0.0: an unclamped -0.0 product reads +0.0, as a step loop gives.
        return np.where(hit, 0.0, s1[:, -1]) + 0.0

    b_t = increments.sum(axis=1)
    return _insider_values(p, b_t, indicator_threshold(p), False, euler_leg), clamped


def _overflow_precedes_clamp(products: np.ndarray, negative: np.ndarray) -> bool:
    first_bad = np.argmax(~np.isfinite(products), axis=1)
    first_clamp = np.where(negative.any(axis=1), np.argmax(negative, axis=1), products.shape[1])
    return bool((first_bad <= first_clamp).any())
