"""Pathwise terminal-wealth samplers for every trader model.

Each sampler maps a block of Brownian draws (terminal values b = B_T, or
path increments for the Euler scheme) to the matching realizations of S(T);
the sample mean over the stream must reproduce the matching closed form,
which is what the estimator harness and the acceptance battery check.

Every trader is one kernel: M on the bond where b <= a, M on the stock
where b - shift > a, exactly 0 between, with (a, wick) the trader's
:meth:`~insidermc.market.Trader.reading` and shift = sigma T under the Wick
reading, else 0.  The Euler scheme reads the forward insider's, betting on
its row sums with its own stock leg.

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

The estimators bet on uniforms, through the kernel's uniform front
:func:`_uniform_insider_values`.  b = sqrt(T) Phi^{-1}(u) is increasing in
u, so {b <= a} is {u <= Phi(a/sqrt T)} and {b - shift > a} is
{u > Phi((a + shift)/sqrt T)}, up to rounding.  Each of the two thresholds
gets a guard band [Phi(x) (1 - 2^-23), Phi(x) (1 + 2^-23)], a relative
half-width of about 1.2e-7.  Below the first band a draw is surely on the bond,
and between the bands it is surely in the dead zone; those draws take their
value without a normal.  The rest, the bands and the stock side, are
gathered, turned into b exactly as
:func:`~insidermc.sampling.brownian_terminal_block` does, and valued by
:func:`_insider_values`, the kernel's b-space decision.  The factorized
Skorokhod estimate's bet 1{b > a} is the same front at the one level a,
:func:`_uniform_bet`: a bool mask, with a normal only in the band.  The band
is exact, not a tolerance.  Each side is at least 2^29 ulps of u wide,
while the errors it must cover are a few ulps of u or of x: ``ndtri``'s and
Phi's, and the roundings of a/sqrt T, of sqrt(T) x and of the band edges.
Over the range of the uniforms, |x| <= 8.3, a relative band of 2^-23 in u
is at least 6e-9 in x.  The rounding of b - sigma T, which does not scale
with x, needs no band: rounding is monotone, so b < a + sigma T gives
fl(b - sigma T) <= a, and the Wick stock side, the only one it could move,
is never pruned.  ``ndtri`` of a gathered draw has the bits it has in the
full block, so every value is bitwise the b-space sampler's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EXP_MAX, OutOfDomainError, WealthOverflowError
from .market import MarketParams, Trader
from .special import _inverse_normal_cdf_array, normal_cdf

__all__ = [
    "honest_values",
    "forward_insider_values",
    "skorokhod_unbiased_values",
    "forward_euler_values",
]


# Relative half-width of the uniform front's guard bands (module docstring).
_BAND = 2.0**-23


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
    A drift of -inf makes every value +0.0, as exp(-inf) gives: sigma^2 T/2
    then exceeds sigma |b| for every b the stream can draw, while sigma b
    alone may overflow and inf - inf would be NaN.
    """
    drift = (p.mu - 0.5 * p.sigma * p.sigma) * p.T
    if drift == -math.inf:
        b_t.fill(0.0)
        return b_t
    b_t *= p.sigma
    b_t += drift
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
    # All stock: no gather or scatter.  The honest bull sampler takes this
    # path, and so do nearly all blocks of the insiders' uniform fronts:
    # their gathered draws are all on the stock side unless one lands in a
    # guard band.
    if stock_leg is None and stock.all():
        np.copyto(values, b_t)
        return _stock_values(p, p.M, values)
    np.multiply(b_t <= a, bond, out=values)
    if stock.any():
        values[stock] = stock_leg(stock) if stock_leg else _stock_values(p, p.M, b_t[stock])
    return values


def _band(t: float, root_t: float) -> tuple[float, float]:
    """The guard band [lo, hi] in u of the level t in b: a draw with u < lo
    surely has b < t, one with u > hi surely b > t."""
    phi = normal_cdf(t / root_t)
    return phi * (1.0 - _BAND), phi * (1.0 + _BAND)


def _uniform_insider_values(p: MarketParams, u: np.ndarray, a: float, wick: bool,
                            scratch: np.ndarray) -> np.ndarray:
    """The kernel of :func:`_insider_values` on the uniforms ``u`` of
    b = sqrt(T) Phi^{-1}(u), bitwise; the values are built over ``u``.

    Draws below the bond band take the bond leg and draws between the bands
    take 0 without a normal (module docstring).  The rest are gathered into
    ``scratch``, float64 memory of at least u's size, made into b and valued
    by :func:`_insider_values`.
    """
    bond = _bond_value(p, p.M)
    root_t = math.sqrt(p.T)
    lo_a, hi_a = _band(a, root_t)
    lo_s, hi_s = _band(a + (p.sigma * p.T if wick else 0.0), root_t)
    below = u < lo_a
    exact = ~below
    if hi_a < lo_s:  # a dead zone between the bands
        exact &= (u <= hi_a) | (u >= lo_s)
    # Gathers and scatters by index: a boolean mask of a random half of a
    # block mispredicts a branch per draw, several times the cost.  Every
    # index is in range, so no take mode changes a value; "raise" would
    # buffer the output.
    at = np.flatnonzero(exact)
    b_t = u.take(at, out=scratch[: at.size], mode="wrap")
    np.multiply(below, bond, out=u)
    if at.size:
        _inverse_normal_cdf_array(b_t, out=b_t)
        b_t *= root_t  # as brownian_terminal_block scales its normals
        u[at] = _insider_values(p, b_t, a, wick)
    return u


def _uniform_bet(p: MarketParams, u: np.ndarray, a: float) -> np.ndarray:
    """The forward bet 1{b > a} on the uniforms ``u`` of
    b = sqrt(T) Phi^{-1}(u), bitwise, as a new bool mask: u above the band
    of a is surely on, u below it surely off, and only the draws in the band
    take a normal (module docstring)."""
    root_t = math.sqrt(p.T)
    lo, hi = _band(a, root_t)
    bet = u > hi
    at = np.flatnonzero((u >= lo) & (u <= hi))
    if at.size:
        b_t = _inverse_normal_cdf_array(u[at])
        b_t *= root_t  # as brownian_terminal_block scales its normals
        bet[at] = b_t > a
    return bet


def honest_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized honest terminal wealth: all of M on the asset with the
    larger rate, the insider kernel at -inf or +inf."""
    return _insider_values(p, b_t, *Trader.HONEST_OPTIMAL.reading(p))


def forward_insider_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized forward-model insider wealth.

    All of M rides the stock when b > a, the bond otherwise; the boundary
    b == a goes to the bond: the insider kernel with no shift.
    """
    return _insider_values(p, b_t, *Trader.FORWARD_INSIDER.reading(p))


def skorokhod_unbiased_values(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Vectorized translation-form Skorokhod sample (see module docstring):
    the insider kernel shifted by sigma T, exactly 0 on a < b <= a + sigma T.
    """
    return _insider_values(p, b_t, *Trader.SKOROKHOD_UNBIASED.reading(p))


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
    On a path whose last product is not finite, its first product that is
    non-finite or negative decides: a non-finite one raises
    WealthOverflowError, a negative one is a clamp.
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
        # last product is not finite; its first bad product decides.
        overflowed = ~np.isfinite(s1[:, -1])
        if overflowed.any():
            rows = s1[overflowed]
            first = np.argmax(~np.isfinite(rows) | negative[overflowed], axis=1)
            if not np.isfinite(rows[np.arange(len(rows)), first]).all():
                raise WealthOverflowError("Euler stock-leg product exceeds the double range")
        # + 0.0: an unclamped -0.0 product reads +0.0, as a step loop gives.
        return np.where(hit, 0.0, s1[:, -1]) + 0.0

    b_t = increments.sum(axis=1)
    return _insider_values(p, b_t, *Trader.FORWARD_INSIDER.reading(p), euler_leg), clamped
