"""Deterministic, index-addressable Gaussian draws and Brownian samples.

The generator is counter-based: draw ``k`` of a stream is a pure function of
``(seed, k)``, so any worker may evaluate any index range independently and
two runs agree bit for bit no matter how the work was split.  A sequential
generator could not give that guarantee.

Construction: the 64-bit word at counter ``k`` is the splitmix64 finalizer
applied to ``seed + (k+1) * GOLDEN`` (a Weyl sequence), mapped to a uniform
strictly inside (0, 1), then pushed through :func:`~insidermc.special.
inverse_normal_cdf`.  One word per normal keeps the (seed, index) -> value
map stateless and platform-stable.

Every step (words, uniforms, normals, Brownian scaling) runs in place in one
:class:`Workspace`, and a block function returns a view of its memory.  A
caller that generates many blocks passes its own workspace as ``out`` and
reuses it; without ``out`` each call makes a fresh one, so the result is a
new array.  Either way the bits are the same.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IndexOverflowError, NonPositiveError, NotFiniteError, OutOfDomainError
from .special import _inverse_normal_cdf_array, normal_cdf

__all__ = [
    "RngStream",
    "Workspace",
    "standard_normal_block",
    "uniform_block",
    "brownian_terminal_block",
    "brownian_increments_block",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MAX_INDEX = 2**63 - 1
# (word >> 11) has 53 random bits t, and u = (t + 0.5) 2^-53.  Below 2^52,
# t + 0.5 is exact and centres t's cell; above it, t + 0.5 rounds to even,
# so those cells are not centred, and the top one, t = 2^53 - 1, would give
# u = 1: uniform_block clamps it to the largest double below 1.
_TO_UNIT = 2.0**-53


@dataclass(frozen=True)
class RngStream:
    """Immutable descriptor of a counter-based stream, keyed by a 64-bit seed;
    a numpy integer seed is kept as the equal Python int."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, numbers.Integral):
            raise OutOfDomainError(f"seed must be an int, got {type(self.seed).__name__}")
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed <= _MASK64:
            raise OutOfDomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")


class Workspace:
    """Reusable memory for blocks of up to ``size`` draws.

    ``words`` holds a block's words and then, in place, its uniforms,
    normals and Brownian values.  ``scratch`` takes the shifted terms of the
    splitmix64 rounds, then ``uniform_block``'s shifted words, and, viewed
    as float64, the draws :func:`_brownian_at` gathers once the uniforms
    are formed.  ``ramp`` is the constant k * GOLDEN (mod 2^64),
    k = 0..size-1, the Weyl steps of a block, computed once per workspace.
    The inverse CDF owns its temporaries, so none live here.  One workspace
    serves one thread at a time, and each block overwrites the last.
    """

    __slots__ = ("words", "scratch", "ramp")

    def __init__(self, size: int):
        self.words = np.empty(size, dtype=np.uint64)
        self.scratch = np.empty(size, dtype=np.uint64)
        self.ramp = np.arange(size, dtype=np.uint64)
        self.ramp *= np.uint64(_GOLDEN)


def _words(seed: int, start: int, count: int, out: Workspace) -> np.ndarray:
    """splitmix64 finalizer over the Weyl sequence seed + (k+1)*GOLDEN,
    computed in ``out.words``."""
    if count > out.words.size:
        raise OutOfDomainError(f"block of {count} draws exceeds the workspace ({out.words.size})")
    # uint64 arithmetic wraps mod 2^64 exactly, so any grouping gives the same words.
    z, t = out.words[:count], out.scratch[:count]
    np.add(out.ramp[:count], np.uint64((seed + (start + 1) * _GOLDEN) & _MASK64), out=z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        if mix is not None:
            z *= np.uint64(mix)
    return z


def _check_range(start: int, count: int) -> tuple[int, int]:
    """``(start, count)`` as Python ints, refused unless counters
    start..start+count-1 are integers inside 0..2**63-1.  A numpy integer
    is the equal Python int, so it gives the same words."""
    if not (isinstance(start, numbers.Integral) and isinstance(count, numbers.Integral)):
        raise OutOfDomainError(f"draw indices must be integers, got {start!r} and {count!r}")
    start, count = int(start), int(count)
    if start < 0 or count < 0:
        raise OutOfDomainError("draw indices must be nonnegative")
    if start + count - 1 > _MAX_INDEX:
        raise IndexOverflowError(f"draw index {start + count - 1} exceeds 2**63 - 1")
    return start, count


def uniform_block(
    stream: RngStream, start: int, count: int, out: Workspace | None = None
) -> np.ndarray:
    """Uniforms strictly inside (0, 1) at counters start..start+count-1."""
    start, count = _check_range(start, count)
    if out is None:
        out = Workspace(count)
    w = _words(stream.seed, start, count, out)
    # Shift into the scratch: a float64 result cast over its own uint64
    # input would make numpy copy the input first.  The shifted words are
    # below 2^53, so read as int64 they convert exactly, and faster than
    # uint64 does.
    t = out.scratch[:count]
    np.right_shift(w, np.uint64(11), out=t)
    u = np.add(t.view(np.int64), 0.5, out=w.view(np.float64))
    u *= _TO_UNIT
    np.minimum(u, 1.0 - _TO_UNIT, out=u)  # the top cell rounds to 1
    return u


def standard_normal_block(
    stream: RngStream, start: int, count: int, out: Workspace | None = None
) -> np.ndarray:
    """Standard normal draws at counters start..start+count-1."""
    return _inverse_normal_cdf_array(uniform_block(stream, start, count, out))


def _require_horizon(T: float) -> float:
    T = float(T)
    if not math.isfinite(T):
        raise NotFiniteError("T", T)
    if T <= 0:
        raise NonPositiveError("T", T)
    return T


def brownian_terminal_block(
    stream: RngStream, start: int, count: int, T: float, out: Workspace | None = None
) -> np.ndarray:
    """Samples of B_T ~ N(0, T) at counters start..start+count-1."""
    T = _require_horizon(T)
    z = standard_normal_block(stream, start, count, out)
    z *= math.sqrt(T)  # IEEE multiplication commutes: the bits of sqrt(T) * z
    return z


# The insiders' uniform fronts bet on u, not on b = sqrt(T) z with
# z = Phi^{-1}(u), which is increasing in u.  A level x in b gets a guard
# band in u of relative half-width 2^-23 around Phi(x/sqrt T): a draw
# outside it is surely on its side of x, and only the draws that need b are
# made into it.  The band is exact, not a tolerance.  Each side is at least
# 2^29 ulps of u wide, while the errors it must cover are a few ulps of u or
# of x: the inverse CDF's, within 2e-15 relative of special's 50-digit
# oracle table (2.8e-16, 2.3 ulp, measured), Phi's (3.7e-16 relative), and
# the roundings of x/sqrt T, of sqrt(T) z and of the band edges.  Over the
# range of the uniforms, |z| <= 8.3, a relative band of 2^-23 in u is at
# least 6e-9 in x, over 10^5 times those errors.  The inverse CDF is
# elementwise, so a gathered draw has the bits it has in the full block,
# and every gathered b is bitwise brownian_terminal_block's.
_BAND = 2.0**-23


def _uniform_band(level: float, T: float) -> tuple[float, float]:
    """The guard band [lo, hi] in u of ``level`` in b = sqrt(T) Phi^{-1}(u):
    a draw with u < lo surely has b < level, one with u > hi surely b > level."""
    phi = normal_cdf(level / math.sqrt(T))
    return phi * (1.0 - _BAND), phi * (1.0 + _BAND)


def _brownian_at(u: np.ndarray, at: np.ndarray, T: float, out: Workspace) -> np.ndarray:
    """b = sqrt(T) Phi^{-1}(u) at the indices ``at`` of ``u``, bitwise
    :func:`brownian_terminal_block`'s, in ``out``'s scratch; an empty
    gather takes no normal."""
    # Every index is in range, so no take mode changes a value; "raise"
    # would buffer the output.
    b_t = u.take(at, out=out.scratch.view(np.float64)[: at.size], mode="wrap")
    if at.size:
        _inverse_normal_cdf_array(b_t)
        b_t *= math.sqrt(T)
    return b_t


def _require_steps(n_steps: int) -> int:
    if not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise OutOfDomainError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    return int(n_steps)


def brownian_increments_block(
    stream: RngStream,
    start: int,
    count: int,
    T: float,
    n_steps: int,
    out: Workspace | None = None,
) -> np.ndarray:
    """Brownian increments over a uniform n_steps grid on [0, T].

    Returns shape (count, n_steps); sample ``i`` consumes raw counters
    ``(start+i)*n_steps .. (start+i+1)*n_steps - 1``, so distinct samples
    never share a counter.
    """
    T = _require_horizon(T)
    n_steps = _require_steps(n_steps)
    # Python ints, so the flattened counters cannot wrap; standard_normal_block
    # range-checks them.
    start, count = _check_range(start, count)
    z = standard_normal_block(stream, start * n_steps, count * n_steps, out)
    z *= math.sqrt(T / n_steps)
    return z.reshape(count, n_steps)


def derive_seed(seed: int, ordinal: int) -> int:
    """A decorrelated child seed for sub-task ``ordinal`` of a master seed:
    word ``ordinal`` of the master seed's stream."""
    ordinal, _ = _check_range(ordinal, 1)
    return int(_words(RngStream(seed).seed, ordinal, 1, Workspace(1))[0])
