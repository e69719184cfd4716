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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOverflowError, NonPositiveError, NotFiniteError, OutOfDomainError
from .special import _inverse_normal_cdf_array

__all__ = [
    "RngStream",
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


def _words(seed: int, start: int, count: int) -> np.ndarray:
    """splitmix64 finalizer over the Weyl sequence seed + (k+1)*GOLDEN."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
    return z


def _check_range(start: int, count: int) -> None:
    if start < 0 or count < 0:
        raise OutOfDomainError("draw indices must be nonnegative")
    if start + count - 1 > _MAX_INDEX:
        raise IndexOverflowError(f"draw index {start + count - 1} exceeds 2**63 - 1")


def uniform_block(stream: RngStream, start: int, count: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1) at counters start..start+count-1."""
    _check_range(start, count)
    w = _words(stream.seed, start, count)
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * _TO_UNIT


def standard_normal_block(stream: RngStream, start: int, count: int) -> np.ndarray:
    """Standard normal draws at counters start..start+count-1."""
    return _inverse_normal_cdf_array(uniform_block(stream, start, count))


def _require_horizon(T: float) -> float:
    T = float(T)
    if not math.isfinite(T):
        raise NotFiniteError("T", T)
    if T <= 0:
        raise NonPositiveError("T", T)
    return T


def brownian_terminal_block(stream: RngStream, start: int, count: int, T: float) -> np.ndarray:
    """Samples of B_T ~ N(0, T) at counters start..start+count-1."""
    T = _require_horizon(T)
    return math.sqrt(T) * standard_normal_block(stream, start, count)


def brownian_increments_block(
    stream: RngStream, start: int, count: int, T: float, n_steps: int
) -> np.ndarray:
    """Brownian increments over a uniform n_steps grid on [0, T].

    Returns shape (count, n_steps); sample ``i`` consumes raw counters
    ``(start+i)*n_steps .. (start+i+1)*n_steps - 1``, so distinct samples
    never share a counter.
    """
    T = _require_horizon(T)
    if n_steps < 1:
        raise OutOfDomainError(f"n_steps must be >= 1, got {n_steps}")
    if start < 0 or count < 0:
        raise OutOfDomainError("draw indices must be nonnegative")
    if (start + count) * n_steps - 1 > _MAX_INDEX or start * n_steps > _MAX_INDEX:
        raise IndexOverflowError(
            f"index {start + count - 1} with n_steps {n_steps} exceeds 2**63 - 1"
        )
    z = standard_normal_block(stream, start * n_steps, count * n_steps)
    return math.sqrt(T / n_steps) * z.reshape(count, n_steps)


def derive_seed(seed: int, ordinal: int) -> int:
    """A decorrelated child seed for sub-task ``ordinal`` of a master seed."""
    z = (seed + (ordinal + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
