"""Estimator harness: deterministic chunked aggregation, standard errors and
z-scores against closed forms.

Floating-point addition is not associative, so reproducibility across worker
counts needs a reduction whose shape never depends on scheduling.  Samples
are statted in granules of 4096 consecutive draw indices and the granule
summaries (count, mean, M2, zero count) are combined along a fixed
mid-split binary tree.  The ``chunks`` execution parameter only sets how
many workers evaluate granule tasks; the numbers that come out are bitwise
identical for any value.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSampleCountError,
    DegenerateEstimateError,
    OutOfDomainError,
    UnknownTraderError,
    WealthOverflowError,
)
from .market import MarketParams, honest_threshold, indicator_threshold
from .samplers import (
    Trader,
    _bond_value,
    _stock_values,
    _uniform_insider_values,
    forward_euler_values,
    honest_values,
)
from .sampling import (
    RngStream,
    Workspace,
    _check_range,
    brownian_increments_block,
    brownian_terminal_block,
    uniform_block,
)

__all__ = [
    "MCEstimate",
    "estimate_mean",
    "estimate_euler_mean",
    "skorokhod_factorized_estimate",
    "z_score",
    "GRANULE",
]

# Granule size of the reduction tree; fixed so results never depend on the
# chunks execution parameter.
GRANULE = 4096
# Draws per generated block (see _stats_over_blocks): 2^16 keeps each
# workspace array at 512 KiB, within L2, and splits n = 10^6 into 16 tasks.
# Smaller blocks would not pay: with one reused workspace per worker nothing
# faults at 2^16, and at 2^14 two workers hand the GIL over so often between
# the cheap word operations that they ran slower than one.
_TASK_TARGET = 1 << 16


@dataclass(frozen=True)
class MCEstimate:
    """Result of a Monte Carlo mean estimate.

    ``m2`` is the sum of squared deviations backing ``sample_stddev``; it is
    kept because the factorized estimate's variance reads its GBM leg's M2
    unrounded, not for merging estimates.  ``clamp_count`` is the number of
    Euler paths whose stock leg was clamped at zero (0 elsewhere).
    """

    n: int
    mean: float
    sample_stddev: float
    stderr: float
    seed: int
    zero_fraction: float
    m2: float = 0.0
    clamp_count: int = 0


# (count, mean, M2, zero_count) per granule.
_Stats = tuple[int, float, float, int]


def _granule_stats(values: np.ndarray) -> _Stats:
    n = int(values.size)
    zeros = int(np.count_nonzero(values == 0.0))
    vmin = float(values.min())
    vmax = float(values.max())
    if vmin == vmax:
        # Constant granule: mean is exact and the spread is exactly zero.
        # (The pairwise sum of a non-power-of-two count of equal values can
        # round, which would leak a bogus ~1e-16 spread into z-scores of
        # deterministic samplers.)
        return (n, vmin, 0.0, zeros)
    mean = float(values.mean())
    m2 = float(np.sum(np.square(values - mean)))
    return (n, mean, m2, zeros)


def _merge_pair(a: _Stats, b: _Stats) -> _Stats:
    # Chan's parallel combination of (count, mean, M2).
    na, ma, m2a, za = a
    nb, mb, m2b, zb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = m2a + m2b + delta * delta * (na * nb / n)
    return (n, mean, m2, za + zb)


def _merge_tree(stats: list[_Stats]) -> _Stats:
    # Recursive mid-split over the granule list: the tree's shape depends on
    # the granule count alone, never on how tasks were cut, so the result is
    # bitwise independent of chunks.
    if len(stats) == 1:
        return stats[0]
    mid = len(stats) // 2
    return _merge_pair(_merge_tree(stats[:mid]), _merge_tree(stats[mid:]))


def _run_tasks(task, offsets, chunks: int) -> list:
    # No more threads than there are tasks or cores; one worker runs inline.
    workers = min(chunks, len(offsets), os.cpu_count() or 1)
    if workers == 1:
        return [task(offset) for offset in offsets]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, offsets))


def _stats_over_blocks(
    make_values, start: int, n: int, chunks: int, width: int = 1
) -> tuple[list[_Stats], int]:
    """Evaluate ``make_values(offset, count, workspace) -> (values, tally)``
    over [start, start+n) and stat each granule of 4096 samples separately.
    ``width`` is the number of draws per sample.  Blocks are
    ``max(1, _TASK_TARGET // width)`` samples, so none holds more than
    ``max(_TASK_TARGET, width)`` draws; a task is the whole granules of one
    block, or one granule generated block by block.  The counter-based
    streams make every result bit independent of the cut.

    Each worker thread makes one :class:`~insidermc.sampling.Workspace` of
    one block's draws and passes it to every block it generates in this
    call, so the Gaussian layer reuses memory that is already mapped instead
    of faulting fresh temporaries in per block.  A block's values may live
    in the workspace; they are statted or copied before the next block.
    Returns the per-granule stats and the sum of the integer tallies.
    """
    end = start + n
    block = max(1, _TASK_TARGET // width)
    step = GRANULE * max(1, block // GRANULE)
    local = threading.local()

    def task(offset: int) -> tuple[list[_Stats], int]:
        workspace = getattr(local, "workspace", None)
        if workspace is None:
            workspace = local.workspace = Workspace(max(_TASK_TARGET, width))
        stop = min(offset + step, end)
        if stop - offset <= block:
            values, tally = make_values(offset, stop - offset, workspace)
        else:
            values, tally = np.empty(stop - offset), 0
            for i in range(offset, stop, block):
                part, part_tally = make_values(i, min(block, stop - i), workspace)
                values[i - offset : i - offset + len(part)] = part
                tally += part_tally
        granules = range(0, len(values), GRANULE)
        return [_granule_stats(values[i : i + GRANULE]) for i in granules], tally

    results = _run_tasks(task, range(start, end, step), chunks)
    stats = [s for task_stats, _ in results for s in task_stats]
    return stats, sum(tally for _, tally in results)


def _finalize(stats: list[_Stats], seed: int, clamp_count: int = 0) -> MCEstimate:
    n, mean, m2, zeros = _merge_tree(stats)
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise WealthOverflowError(
            f"sample statistics left the double range (mean {mean!r}, M2 {m2!r})"
        )
    stddev = math.sqrt(m2 / (n - 1))
    stderr = stddev / math.sqrt(n)
    return MCEstimate(
        n=n,
        mean=mean,
        sample_stddev=stddev,
        stderr=stderr,
        seed=seed,
        zero_fraction=zeros / n,
        m2=m2,
        clamp_count=clamp_count,
    )


def _check_counts(n: int, chunks: int) -> None:
    # Python or numpy integers only; integral floats are refused too.
    if not isinstance(n, numbers.Integral) or n < 2:
        raise BadSampleCountError(f"need an integer n >= 2 samples, got {n!r}")
    if not isinstance(chunks, numbers.Integral) or chunks < 1:
        raise OutOfDomainError(f"chunks must be an integer >= 1, got {chunks!r}")
    # Checked here too, for the estimates that generate no draws.
    _check_range(0, n)


def estimate_mean(
    trader: Trader,
    p: MarketParams,
    n: int,
    seed: int,
    chunks: int = 1,
) -> MCEstimate:
    """Mean terminal wealth of ``trader`` over draw indices 0..n-1.

    The result is bitwise independent of ``chunks``.
    """
    _check_counts(n, chunks)
    try:
        trader = Trader(trader)
    except ValueError as exc:
        raise UnknownTraderError(f"unknown trader tag {trader!r}") from exc
    stream = RngStream(seed)
    # The all-bond honest bet reads no draw: it gets zeros that take no memory.
    no_draws = trader is Trader.HONEST_OPTIMAL and honest_threshold(p) == math.inf
    a, wick = indicator_threshold(p), trader is Trader.SKOROKHOD_UNBIASED

    # Generators and samplers are looked up by module name per block, never
    # bound once, so a wrapper patched onto this module's attributes sees
    # every call.  The insiders bet on uniforms through the kernel's front,
    # which forms b only where a value reads it; the gathered draws go to
    # the workspace's scratch, free once the uniforms are formed.
    def make_values(offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
        if trader is not Trader.HONEST_OPTIMAL:
            u = uniform_block(stream, offset, count, out=workspace)
            scratch = workspace.scratch.view(np.float64)
            return _uniform_insider_values(p, u, a, wick, scratch), 0
        if no_draws:
            b_t = np.broadcast_to(0.0, count)
        else:
            b_t = brownian_terminal_block(stream, offset, count, p.T, out=workspace)
        return honest_values(p, b_t), 0

    stats, _ = _stats_over_blocks(make_values, 0, n, chunks)
    return _finalize(stats, seed)


def estimate_euler_mean(
    p: MarketParams,
    n_steps: int,
    n: int,
    seed: int,
    chunks: int = 1,
) -> MCEstimate:
    """Mean of the Euler-discretized forward model over n paths.

    Each path ``i`` consumes raw draw counters ``i*n_steps .. (i+1)*n_steps-1``,
    so distinct paths and distinct step counts use disjoint index ranges.
    The harness generates and steps paths in blocks of width ``n_steps``.
    """
    _check_counts(n, chunks)
    if not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise OutOfDomainError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    n_steps = int(n_steps)
    _check_range(0, n * n_steps)  # every counter, before any is drawn
    stream = RngStream(seed)

    def make_values(offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
        increments = brownian_increments_block(
            stream, offset, count, p.T, n_steps, out=workspace
        )
        values, clamped = forward_euler_values(p, increments)
        return values, int(np.count_nonzero(clamped))

    stats, clamps = _stats_over_blocks(make_values, 0, n, chunks, n_steps)
    return _finalize(stats, seed, clamps)


def skorokhod_factorized_estimate(
    p: MarketParams, stream: RngStream, n: int, chunks: int = 1
) -> MCEstimate:
    """Skorokhod expectation via the Wick factorization of its stock leg:

        E[S(T)] = M Pr{B_T <= a} e^{rho T}
                + M Pr{B_T > a} E[exp((mu - sigma^2/2) T + sigma B_T)]

    The bet probability is estimated from draw indices 0..n-1 and the GBM
    mean factor from indices n..2n-1, disjoint hence independent, as the
    factorization requires of a product estimator.  The standard error uses
    the delta method for the product, with the bond/stock covariance through
    the shared probability estimate included:

        var = M^2 [ (g_hat - e^{rho T})^2 var(p_hat) + p_hat^2 var(g_hat) ]
    """
    _check_counts(n, chunks)
    if not isinstance(stream, RngStream):
        raise OutOfDomainError(f"stream must be an RngStream, got {stream!r}")
    _check_range(0, 2 * n)  # the GBM leg's counters too, before any is drawn
    a = indicator_threshold(p)
    bond = _bond_value(p, 1.0)

    def indicator_values(offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
        # The kernel with legs 0 and 1 is 1{b > a}: a normal only in the band.
        u = uniform_block(stream, offset, count, out=workspace)
        scratch = workspace.scratch.view(np.float64)
        return _uniform_insider_values(p, u, a, False, scratch, bond=0.0, stock=1.0), 0

    def gbm_values(offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
        b_t = brownian_terminal_block(stream, offset, count, p.T, out=workspace)
        return _stock_values(p, 1.0, b_t), 0

    prob = _finalize(_stats_over_blocks(indicator_values, 0, n, chunks)[0], stream.seed)
    gbm = _finalize(_stats_over_blocks(gbm_values, n, n, chunks)[0], stream.seed)
    p_hat, g_hat = prob.mean, gbm.mean
    mean = p.M * ((1.0 - p_hat) * bond + p_hat * g_hat)
    var_p = p_hat * (1.0 - p_hat) / n
    var_g = (gbm.m2 / (n - 1)) / n
    # A certain bet has var_p = 0, and its gap term is 0 even where the
    # gap's square alone would overflow.
    gap = g_hat - bond
    gap_term = gap * gap * var_p if var_p else 0.0
    var = p.M * p.M * (gap_term + p_hat * p_hat * var_g)
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise WealthOverflowError(
            f"factorized estimate left the double range (mean {mean!r}, variance {var!r})"
        )
    stderr = math.sqrt(var)
    stddev = stderr * math.sqrt(n)
    return MCEstimate(
        n=n,
        mean=mean,
        sample_stddev=stddev,
        stderr=stderr,
        seed=stream.seed,
        zero_fraction=0.0,
    )


def z_score(est: MCEstimate, reference: float) -> float:
    """(mean - reference) / stderr, with the exact-match degenerate branch."""
    if est.stderr == 0.0:
        if est.mean == reference:
            return 0.0
        raise DegenerateEstimateError(
            f"zero-spread estimate {est.mean!r} does not match reference {reference!r}"
        )
    return (est.mean - reference) / est.stderr
