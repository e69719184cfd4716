"""Error function, standard normal CDF and its inverse: the one home of the
normal distribution, closed-form lower tail included.

Accuracy target is 1e-12 absolute so that special-function error is
negligible against Monte Carlo tolerances (~1e-4).  The forward functions
are the standard library's ``math.erf`` and ``math.erfc``.  Against a
40-digit mpmath oracle at 3000 random arguments in [-12, 26.5],
``math.erfc`` stayed within 1.9 ulp wherever its result is a normal double,
where scipy's ``erfc`` reached 483 ulp in Phi's lower tail; ``math.erf``
stayed within 0.75 ulp on [-6, 6].

The inverse is the package's own, built from numpy's add, subtract,
multiply, divide, sqrt, minimum, frexp and copysign, which are correctly
rounded or exact on every CPU, so its bits depend neither on numpy's CPU
dispatch nor on the libm.  It has three rational pieces after Wichura
(Algorithm AS 241, Appl. Stat. 37, 1988): a central one in q = u - 0.5 and
two tail pieces in r = sqrt(-log min(u, 1 - u)), the log itself from an
exact mantissa and exponent split and a short series.
tools/fit_inverse_normal.py fits their coefficients at 50 digits and writes
them to ``_inverse_normal_coefficients``.  Against that script's frozen
table of 2320 50-digit quantiles over u in [1e-300, 1 - 2^-53], the
relative error stays within 2.8e-16 (2.3 ulp); the values are exactly
antisymmetric about 0.5 wherever 1 - u is exact, and non-decreasing across
every piece edge.  A block takes about a hundred numpy calls where scipy's
``ndtri`` took one; the Monte Carlo workers are processes, so none of those
calls waits for another worker's GIL, but threads of a caller's own that
run the core at once still do (ROADMAP item 19).

numpy is imported on the first inverse CDF call, so ``import insidermc``
and the closed forms do not load it, and nothing here loads scipy.  Scalar
calls and the vectorized helpers used by the sampling pipeline share one
array core, so a scalar result is bit-identical to the matching entry of a
block evaluation.  The core takes the vector alone and transforms it in
place; it owns its scratch, one spare array of central temporaries per call
that runs at once, kept between calls.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._inverse_normal_coefficients import (
    CENTRAL_P,
    CENTRAL_Q,
    FAR_TAIL_P,
    FAR_TAIL_Q,
    LN2_HI,
    LN2_LO,
    MINUS_LOG_THREE_QUARTERS,
    R_EDGE,
    R_LO,
    TAIL_P,
    TAIL_Q,
    U_HI,
    U_LO,
    W_EDGE,
)
from .errors import NotFiniteError, OutOfDomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["erf", "normal_cdf", "inverse_normal_cdf"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# mpmath, 50 digits: 1/sqrt(2) - _INV_SQRT2.
_INV_SQRT2_LO = 6.268583589525109e-17
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
# 2/21, 2/19, ..., 2/3, 2/1: 2 atanh(s) = s (2 + 2 s^2/3 + 2 s^4/5 + ...),
# cut after s^21.  For |s| <= 0.2 the first term left out, 2 s^23/23, is
# below 8e-18, against an ulp of 4.4e-16 of the smallest -log p it enters.
_ATANH_SERIES = tuple(2.0 / k for k in range(21, 0, -2))
# The most draws one pass of a piece takes, a Monte Carlo block, so that its
# temporaries stay in cache.
_PIECE = 1 << 16
# The central piece's (3, _PIECE) temporaries that no call holds.  A call
# pops one and appends it back after its central pass; list.pop and
# list.append are atomic under the GIL, so concurrent calls never share one,
# and the list holds no more than the most calls that ever ran at once.
# Concurrent calls come from a caller's own threads: each Monte Carlo worker
# process holds a list of its own.
_SPARE_WORK: list = []


def erf(x: float) -> float:
    """Error function erf(x) = 2/sqrt(pi) * integral_0^x exp(-t^2) dt.

    Odd, bounded by [-1, 1]; absolute error <= 1e-12.  erf(+-inf) returns
    +-1 so parameter sweeps at extreme arguments stay total; NaN raises
    :class:`NotFiniteError`.
    """
    x = float(x)
    if math.isnan(x):
        raise NotFiniteError("x", x)
    return math.erf(x)


def _split(a: float) -> tuple[float, float]:
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 bits,
    so the product of two halves is exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_INV_SQRT2_HI, _INV_SQRT2_MID = _split(_INV_SQRT2)


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x) = (1 + erf(x/sqrt(2))) / 2.

    Evaluated as ``erfc(-y) / 2``, y = x/sqrt(2) rounded, so the lower tail
    keeps relative accuracy instead of cancelling against 1.  erfc amplifies
    the rounding r = x/sqrt(2) - y by about x^2 (2e-13 relative near -37),
    so for x < 0, r is recovered to about 2^-106 relative (Dekker's exact
    product of x and the double c nearest 1/sqrt(2), minus y, plus x times
    1/sqrt(2) - c) and taken back to first order through erfc'(-y) =
    -2/sqrt(pi) e^{-y^2}.  Against a 50-digit oracle at 4000 random points in
    [-37.5, 8.3] the relative error stayed within 3.7e-16; below -37.5
    Phi(x) is subnormal, and below -40 it is 0.
    """
    x = float(x)
    if math.isnan(x):
        raise NotFiniteError("x", x)
    if x <= -40.0:  # Phi(-40) is below the smallest subnormal
        return 0.0
    y = x * _INV_SQRT2
    if x >= 0.0:
        return 0.5 * math.erfc(-y)
    hi, lo = _split(x)
    r = ((hi * _INV_SQRT2_HI - y) + hi * _INV_SQRT2_MID + lo * _INV_SQRT2_HI
         + lo * _INV_SQRT2_MID + x * _INV_SQRT2_LO)
    return 0.5 * (math.erfc(-y) + _TWO_OVER_SQRT_PI * math.exp(-y * y) * r)


def _ratio(t: np.ndarray, p: tuple, q: tuple, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """p(t)/q(t) by Horner's rule, into ``num`` (``den`` is scratch):
    ascending coefficients, q monic."""
    import numpy as np

    np.multiply(t, p[-1], out=num)
    num += p[-2]
    for a in p[-3::-1]:
        num *= t
        num += a
    np.add(t, q[-2], out=den)
    for b in q[-3::-1]:
        den *= t
        den += b
    num /= den
    return num


def _minus_log(p: np.ndarray) -> np.ndarray:
    """-log p for 0 < p < 0.125, from basic operations alone: p = m 2^e
    exactly, log m = log 0.75 + 2 atanh(s) with s = (m - 0.75)/(m + 0.75)
    in [-0.2, 1/7), and -e log 2 in Cody and Waite's two parts."""
    import numpy as np

    m, e = np.frexp(p)
    s = np.subtract(m, 0.75)  # exact: m lies in [0.5, 1)
    m += 0.75
    s /= m
    z = np.multiply(s, s, out=m)
    series = np.multiply(z, _ATANH_SERIES[0])
    for c in _ATANH_SERIES[1:-1]:
        series += c
        series *= z
    series += _ATANH_SERIES[-1]
    series *= s  # 2 atanh(s)
    low = np.multiply(e, -LN2_LO, out=z)
    low += MINUS_LOG_THREE_QUARTERS
    low -= series
    high = np.multiply(e, -LN2_HI, out=series)  # exact: LN2_HI has 32 bits
    high += low
    return high


def _tail_magnitude(p: np.ndarray) -> np.ndarray:
    """|Phi^{-1}(p)| for 0 < p < U_LO, in place: r + h(r) with
    r = sqrt(-log p), the second tail piece past R_EDGE."""
    import numpy as np

    r = _minus_log(p)
    np.sqrt(r, out=r)
    t = np.subtract(r, R_LO, out=p)
    h = _ratio(t, TAIL_P, TAIL_Q, np.empty_like(t), np.empty_like(t))
    far = np.flatnonzero(r > R_EDGE)
    if far.size:
        t = r.take(far)
        t -= R_EDGE
        h[far] = _ratio(t, FAR_TAIL_P, FAR_TAIL_Q, np.empty_like(t), np.empty_like(t))
    return np.add(r, h, out=p)


def _inverse_normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """Vectorized inverse CDF of a float64 vector strictly inside (0, 1),
    in place: ``x`` is transformed and returned.  The central piece's
    temporaries come from the module's spare list, and a call allocates
    them only when every spare is in use, so calls made one after another
    allocate them once.

    The draws outside [U_LO, U_HI] are gathered first, before ``x`` is
    written.  The central piece, x = 2q + q S(W_EDGE - q^2) with
    q = u - 0.5, then runs over every draw, and the tails,
    |x| = r + h(r) with r = sqrt(-log min(u, 1 - u)), over the gathered
    draws, each _PIECE at a time.  Each value is a fixed sequence of IEEE
    operations on its own u, so its bits do not depend on the other draws
    of the call.
    """
    import numpy as np

    tails = np.flatnonzero((x < U_LO) | (x > U_HI))
    u_tails = x.take(tails)
    try:
        work = _SPARE_WORK.pop()
    except IndexError:
        # On a 64-byte boundary: on a 2-core AVX2 Xeon the central pass took
        # 650 us per 2^16 draws there and 750 us at malloc's 16 bytes.
        buf = np.empty(3 * _PIECE + 8)
        skip = -buf.ctypes.data % 64 // 8
        work = buf[skip : skip + 3 * _PIECE].reshape(3, _PIECE)
    for start in range(0, x.size, _PIECE):
        _central(x[start : start + _PIECE], work)
    _SPARE_WORK.append(work)
    if tails.size:
        t = np.subtract(1.0, u_tails)  # exact wherever it is the minimum
        np.minimum(t, u_tails, out=t)
        for start in range(0, t.size, _PIECE):
            _tail_magnitude(t[start : start + _PIECE])
        u_tails -= 0.5
        np.copysign(t, u_tails, out=t)
        x[tails] = t
    return x


def _central(x: np.ndarray, work: np.ndarray) -> None:
    """x = 2q + q S(W_EDGE - q^2), q = u - 0.5, in place.  The dominant
    term 2q is exact, which keeps x non-decreasing across adjacent doubles
    although S's own rounding is not monotone."""
    import numpy as np

    w, num, den = work[:, : x.size]
    q = np.subtract(x, 0.5, out=x)
    np.multiply(q, q, out=w)
    np.subtract(W_EDGE, w, out=w)
    s = _ratio(w, CENTRAL_P, CENTRAL_Q, num, den)
    s *= q
    q += q
    q += s


def inverse_normal_cdf(u: float) -> float:
    """Quantile x with Phi(x) = u, for u strictly in (0, 1).

    Non-decreasing in u, not strictly: adjacent doubles can share a
    quantile, as 1e-300 and the next double both give -37.0470962993612.
    Over u in [1e-300, 1 - 2^-53], checked
    against a 50-digit oracle: relative error <= 1e-14 and
    |Phi(x) - u| <= 1e-12.

    Raises
    ------
    OutOfDomainError
        For u <= 0, u >= 1, or NaN.
    """
    u = float(u)
    if not 0.0 < u < 1.0:  # NaN fails the comparison and lands here too
        raise OutOfDomainError(f"u must lie strictly in (0, 1), got {u!r}")
    import numpy as np

    return float(_inverse_normal_cdf_array(np.array([u]))[0])
