"""Pathwise terminal-wealth samplers for every trader model.

Each sampler maps a block of Brownian draws (terminal values b = B_T, or
path increments for the Euler scheme) to the matching realizations of S(T);
the sample mean over the stream must reproduce the matching closed form,
which is what the estimator harness and the acceptance battery check.

The Skorokhod model needs a word of caution.  Its solution is a Wick
product, which has no pathwise reading, so :func:`skorokhod_unbiased_values`
is a translation-form estimator built from the Gaussian shift identity
``E[f(B_T) exp(sigma B_T - sigma^2 T / 2)] = E[f(B_T + sigma T)]`` applied
in reverse to the stock leg:

    value = M 1{b <= a} e^{rho T}
          + M 1{b - sigma T > a} exp((mu - sigma^2/2) T + sigma b)

Its expectation over b ~ N(0, T) equals the Skorokhod closed form (certified
against it, not asserted): the shifted indicator turns back into
Pr{B_T > a} times the plain GBM mean, which is the Wick factorization.  The
two indicators are *not* complementary; for a < b <= a + sigma T the sample
is exactly 0.  That dead zone is the pathwise face of the model's financial
paradox, and its mass is a tracked diagnostic.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import EXP_MAX, OutOfDomainError, WealthOverflowError
from .market import (
    Allocation,
    MarketParams,
    indicator_threshold,
    require_consistent_allocation,
)

__all__ = [
    "Trader",
    "honest_values",
    "forward_insider_values",
    "skorokhod_unbiased_values",
    "forward_euler_values",
]


class Trader(enum.Enum):
    """Which wealth model an estimator samples."""

    HONEST_FIXED = "honest-fixed"
    HONEST_OPTIMAL = "honest-optimal"
    FORWARD_INSIDER = "forward-insider"
    SKOROKHOD_UNBIASED = "skorokhod-unbiased"


def _stock_exponents(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    return (p.mu - 0.5 * p.sigma * p.sigma) * p.T + p.sigma * b_t


def _check_overflow(exponents: np.ndarray, what: str) -> None:
    if exponents.size and float(exponents.max()) > EXP_MAX:
        raise WealthOverflowError(f"{what} exponent exceeds the double range ({EXP_MAX})")


def honest_values(p: MarketParams, a: Allocation, b_t: np.ndarray) -> np.ndarray:
    """Vectorized honest terminal wealth m0 e^{rho T} + m1 exp((mu - sigma^2/2)T + sigma b)."""
    require_consistent_allocation(p, a)
    if p.rho * p.T > EXP_MAX:
        raise WealthOverflowError(f"rho*T exceeds the double range ({EXP_MAX})")
    b_t = np.asarray(b_t, dtype=np.float64)
    bond = a.m0 * math.exp(p.rho * p.T)
    if a.m1 == 0.0:
        return np.full(b_t.shape, bond)
    expo = _stock_exponents(p, b_t)
    _check_overflow(expo, "stock")
    return bond + a.m1 * np.exp(expo)


def forward_insider_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized forward-model insider wealth.

    All of M rides the stock when b > a, the bond otherwise; the boundary
    b == a goes to the bond.
    """
    if p.rho * p.T > EXP_MAX:
        raise WealthOverflowError(f"rho*T exceeds the double range ({EXP_MAX})")
    b_t = np.asarray(b_t, dtype=np.float64)
    a = indicator_threshold(p)
    values = np.full(b_t.shape, p.M * math.exp(p.rho * p.T))
    stock = b_t > a
    if stock.any():
        expo = _stock_exponents(p, b_t[stock])
        _check_overflow(expo, "stock")
        values[stock] = p.M * np.exp(expo)
    return values


def skorokhod_unbiased_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized translation-form Skorokhod sample (see module docstring).

    Exactly 0 on the dead zone a < b <= a + sigma T.
    """
    if p.rho * p.T > EXP_MAX:
        raise WealthOverflowError(f"rho*T exceeds the double range ({EXP_MAX})")
    b_t = np.asarray(b_t, dtype=np.float64)
    a = indicator_threshold(p)
    values = np.where(b_t <= a, p.M * math.exp(p.rho * p.T), 0.0)
    stock = b_t - p.sigma * p.T > a
    if stock.any():
        expo = _stock_exponents(p, b_t[stock])
        _check_overflow(expo, "stock")
        values[stock] = p.M * np.exp(expo)
    return values


def forward_euler_values(
    p: MarketParams, increments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler discretization of the forward-model stock leg.

    ``increments`` has shape (n_paths, n_steps).  The terminal value
    b_T = sum of increments decides the anticipating initial condition,
    then the stock leg iterates S1 <- S1 (1 + mu dt + sigma dB_k); the bond
    leg uses the exact ODE solution.  A step driving S1 negative is a
    coarse-grid artifact: the path is clamped at 0 and flagged, so
    convergence studies can watch the clamp count vanish as dt -> 0.

    Returns (values, clamped) with ``clamped`` a boolean mask per path.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] < 1:
        raise OutOfDomainError("increments must have shape (n_paths, n_steps >= 1)")
    if p.rho * p.T > EXP_MAX:
        raise WealthOverflowError(f"rho*T exceeds the double range ({EXP_MAX})")
    n_steps = increments.shape[1]
    dt = p.T / n_steps
    b_t = increments.sum(axis=1)
    a = indicator_threshold(p)
    stock_on = b_t > a

    s1 = np.where(stock_on, p.M, 0.0)
    clamped = np.zeros(increments.shape[0], dtype=bool)
    growth = 1.0 + p.mu * dt
    for k in range(n_steps):
        s1 = s1 * (growth + p.sigma * increments[:, k])
        negative = s1 < 0.0
        if negative.any():
            clamped |= negative
            s1[negative] = 0.0
    values = np.where(stock_on, 0.0, p.M * math.exp(p.rho * p.T)) + s1
    return values, clamped
