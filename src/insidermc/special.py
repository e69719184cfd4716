"""Error function, standard normal CDF, its logarithm and its inverse: the
one home of the normal distribution, closed-form lower tail included.

Accuracy target is 1e-12 absolute so that special-function error is
negligible against Monte Carlo tolerances (~1e-4).  The forward functions
are the standard library's ``math.erf`` and ``math.erfc``.  Against a
40-digit mpmath oracle at 3000 random arguments in [-12, 26.5],
``math.erfc`` stayed within 1.9 ulp wherever its result is a normal double,
where scipy's ``erfc`` reached 483 ulp in Phi's lower tail; ``math.erf``
stayed within 0.75 ulp on [-6, 6].  The inverse is scipy's ``ndtri``, which
folds its tails on 1 - u itself; it is exactly antisymmetric about 0.5 on
the doubles where 1 - u is exact, and checked against a frozen 50-digit
oracle table over u in [1e-300, 1 - 2^-53] to 1e-14 relative error.

numpy is imported, and ``ndtri`` bound, on the first inverse CDF call, so
``import insidermc`` and the closed forms load neither numpy nor scipy; the
first Monte Carlo block does.  That block loads only the ``ndtri`` ufunc's
extension, ``scipy.special._ufuncs``, not the ``scipy.special`` package:
with scipy 1.17 the extension took 0.02 s and 5 MB of RSS, the package
0.24 s and 25.7 MB (:func:`_load_ndtri`).

Scalar calls and the vectorized helpers used by the sampling pipeline share
one array core, so a scalar result is bit-identical to the matching entry of
a block evaluation.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import threading
import types
from typing import TYPE_CHECKING

from .errors import NotFiniteError, OutOfDomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["erf", "normal_cdf", "inverse_normal_cdf"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# mpmath, 50 digits: 1/sqrt(2) - _INV_SQRT2, and log(2 pi)/2.
_INV_SQRT2_LO = 6.268583589525109e-17
_HALF_LOG_2PI = 0.9189385332046728
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# scipy's ndtri ufunc, bound once by the first inverse CDF call under the
# lock: that call can come from several pool threads at once.
_ndtri = None
_NDTRI_LOCK = threading.Lock()


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


def _log_normal_cdf(x: float) -> float:
    """log Phi(x), stable for any finite x (no underflow in the lower tail).

    Within 1e-15 relative of a 50-digit oracle, except for x > 37.5, where
    log Phi(x) = -Phi(-x) is subnormal.
    """
    if x > 0.0:
        return math.log1p(-normal_cdf(-x))
    if x >= -37.5:  # Phi(x) is a normal double here
        return math.log(normal_cdf(x))
    # Phi(x) = phi(x)/(-x) (1 - 1/x^2 + 3/x^4 - ...), the asymptotic series of
    # the Mills ratio.  Below -37.5 the first term left out, 10395/x^12, is
    # under 2e-15, about 1% of an ulp of log Phi(x) < -707.
    z = 1.0 / (x * x)
    series = z * (-1.0 + z * (3.0 + z * (-15.0 + z * (105.0 - z * 945.0))))
    return -0.5 * x * x - math.log(-x) - _HALF_LOG_2PI + math.log1p(series)


def _inverse_normal_cdf_array(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized inverse CDF; expects a float64 array strictly inside (0, 1).
    ``out`` may be ``u`` itself."""
    global _ndtri
    if _ndtri is None:
        with _NDTRI_LOCK:
            if _ndtri is None:
                _ndtri = _load_ndtri()
    return _ndtri(u, out=out)


def _load_ndtri():
    """scipy's ``ndtri`` ufunc, without running ``scipy.special``'s ``__init__``.

    A bare package module with the real ``__path__`` stands in for
    ``scipy.special`` while its extension ``_ufuncs`` is imported, and is
    removed after.  ``_ufuncs`` stays in ``sys.modules``, so a later
    ``import scipy.special`` builds the real package around the same ufunc.
    An already imported package is used as it is, and any failure of the
    lean path falls back to the public import.
    """
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"].ndtri
    try:
        return _ufuncs_ndtri()
    except Exception:
        from scipy.special import ndtri

        return ndtri


def _ufuncs_ndtri():
    """``ndtri`` of ``scipy.special._ufuncs``, imported under a stand-in
    ``scipy.special``."""
    import scipy

    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(root, "special") for root in scipy.__path__]
    sys.modules["scipy.special"] = stub
    try:
        return importlib.import_module("scipy.special._ufuncs").ndtri
    finally:
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]


def inverse_normal_cdf(u: float) -> float:
    """Quantile x with Phi(x) = u, for u strictly in (0, 1).

    Strictly increasing in u.  Over u in [1e-300, 1 - 2^-53], checked
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
