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
from dataclasses import dataclass

import numpy as np

from .errors import IndexOverflowError, NonPositiveError, NotFiniteError, OutOfDomainError
from .special import _inverse_normal_cdf_array

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
# (word >> 11) has 53 random bits; +0.5 centers each cell so u is never 0 or 1.
_TO_UNIT = 2.0**-53


@dataclass(frozen=True)
class RngStream:
    """Immutable descriptor of a counter-based stream, keyed by a 64-bit seed."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise OutOfDomainError(f"seed must be an int, got {type(self.seed).__name__}")
        if not 0 <= self.seed <= _MASK64:
            raise OutOfDomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")


class Workspace:
    """Reusable memory for blocks of up to ``size`` draws.

    ``words`` holds a block's words and then, in place, its uniforms,
    normals and Brownian values.  ``scratch`` takes the shifted terms of the
    splitmix64 rounds, then ``uniform_block``'s shifted words, and, viewed
    as float64, the draws the insiders' uniform front gathers once the
    uniforms are formed.  ``ramp`` is the constant 0..size-1.  One workspace
    serves one thread at a time, and each block overwrites the last.
    """

    __slots__ = ("words", "scratch", "ramp")

    def __init__(self, size: int):
        self.words = np.empty(size, dtype=np.uint64)
        self.scratch = np.empty(size, dtype=np.uint64)
        self.ramp = np.arange(size, dtype=np.uint64)


def _words(seed: int, start: int, count: int, out: Workspace) -> np.ndarray:
    """splitmix64 finalizer over the Weyl sequence seed + (k+1)*GOLDEN,
    computed in ``out.words``."""
    if count > out.words.size:
        raise OutOfDomainError(f"block of {count} draws exceeds the workspace ({out.words.size})")
    # uint64 arithmetic wraps mod 2^64 exactly, so any grouping gives the same words.
    z, t = out.words[:count], out.scratch[:count]
    np.multiply(out.ramp[:count], np.uint64(_GOLDEN), out=z)
    z += np.uint64((seed + (start + 1) * _GOLDEN) & _MASK64)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        if mix is not None:
            z *= np.uint64(mix)
    return z


def _check_range(start: int, count: int) -> None:
    if start < 0 or count < 0:
        raise OutOfDomainError("draw indices must be nonnegative")
    if start + count - 1 > _MAX_INDEX:
        raise IndexOverflowError(f"draw index {start + count - 1} exceeds 2**63 - 1")


def uniform_block(
    stream: RngStream, start: int, count: int, out: Workspace | None = None
) -> np.ndarray:
    """Uniforms strictly inside (0, 1) at counters start..start+count-1."""
    _check_range(start, count)
    if out is None:
        out = Workspace(count)
    w = _words(stream.seed, start, count, out)
    # Shift into the scratch: a float64 result cast over its own uint64
    # input would make numpy copy the input first.
    t = out.scratch[:count]
    np.right_shift(w, np.uint64(11), out=t)
    u = np.add(t, 0.5, out=w.view(np.float64))
    u *= _TO_UNIT
    return u


def standard_normal_block(
    stream: RngStream, start: int, count: int, out: Workspace | None = None
) -> np.ndarray:
    """Standard normal draws at counters start..start+count-1."""
    u = uniform_block(stream, start, count, out)
    return _inverse_normal_cdf_array(u, out=u)


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
    if n_steps < 1:
        raise OutOfDomainError(f"n_steps must be >= 1, got {n_steps}")
    # standard_normal_block range-checks the flattened counters.
    z = standard_normal_block(stream, start * n_steps, count * n_steps, out)
    z *= math.sqrt(T / n_steps)
    return z.reshape(count, n_steps)


def derive_seed(seed: int, ordinal: int) -> int:
    """A decorrelated child seed for sub-task ``ordinal`` of a master seed:
    word ``ordinal`` of the master seed's stream."""
    return int(_words(RngStream(seed).seed, ordinal, 1, Workspace(1))[0])
