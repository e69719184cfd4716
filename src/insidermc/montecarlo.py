"""Estimator harness: deterministic chunked aggregation, standard errors and
z-scores against closed forms.

Floating-point addition is not associative, so reproducibility across worker
counts needs a reduction whose shape never depends on scheduling.  Samples
are statted in granules of 4096 consecutive draw indices and the granule
summaries (count, mean, M2, zero count) are combined along a fixed
mid-split binary tree.  The ``chunks`` execution parameter sets how many
worker processes evaluate the granule tasks, generated in blocks of 2^16
draws whatever the worker count; the numbers that come out are bitwise
identical for any worker count.  Workers share no interpreter, so they
never wait on one another's GIL.
"""

from __future__ import annotations

import atexit
import math
import numbers
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    BadSampleCountError,
    DegenerateEstimateError,
    OutOfDomainError,
    UnknownTraderError,
    WealthOverflowError,
)
from .market import MarketParams, Trader, indicator_threshold
from .samplers import (
    _bond_value,
    _stock_values,
    _uniform_bet,
    _uniform_insider_values,
    forward_euler_values,
)
from .sampling import (
    RngStream,
    Workspace,
    _check_range,
    _require_steps,
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
# Smaller blocks would not pay: with one reused workspace per slab nothing
# faults at 2^16, and the stats take a fixed handful of numpy calls per
# task.  Larger ones lose too: on a 2-core Xeon, with blocks of 2^17,
# perfbench's euler-levels wall_s median rose from 0.164 to 0.185 s, slower
# in 4 of 5 alternating pairs (--seconds 30 --trace 0, seeds 951-955), and
# peak_rss_mb by 2.6 MB on mc-terminal and 1.8 MB on euler-levels.
_TASK_TARGET = 1 << 16
# The process-wide worker pool and its process count (see _pool), or None
# before the first call that runs two or more workers.
_POOL = None


@dataclass(frozen=True)
class MCEstimate:
    """Result of a Monte Carlo mean estimate.

    ``clamp_count`` is the number of Euler paths whose stock leg was clamped
    at zero (0 elsewhere).  A mean or stderr outside the double range raises
    WealthOverflowError: every estimator returns through this check.
    """

    n: int
    mean: float
    stderr: float
    zero_fraction: float
    clamp_count: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.stderr)):
            raise WealthOverflowError(
                f"estimate left the double range (mean {self.mean!r}, stderr {self.stderr!r})"
            )


# (count, mean, M2, zero_count) per granule.
_Stats = tuple[int, float, float, int]


def _granule_stats(values: np.ndarray) -> list[_Stats]:
    """Stats of each granule of ``values`` in order, the last one possibly
    short.  Each statistic is one reduction over the rows of all full
    granules, then over a one-row view of the ragged rest; numpy sums a row
    pairwise exactly as it sums the same values alone, so every granule's
    stats are bitwise those of statting it by itself.

    A bool block is statted by its counts: a granule of c values with k
    ones has mean k/c, M2 k(c - k)/c and c - k zeros.  Its mean is bitwise
    that of the same block as 0.0/1.0: a pairwise sum of 0/1 values is
    exact, and a constant granule's min is k/c.
    """
    full = values.size - values.size % GRANULE
    stats: list[_Stats] = []
    for rows in (values[:full].reshape(-1, GRANULE), values[full:].reshape(1, -1)):
        if rows.size == 0:
            continue
        count = rows.shape[1]
        if rows.dtype == np.bool_:
            ones = np.count_nonzero(rows, axis=1)
            zeros = count - ones
            stats += zip([count] * len(rows), (ones / count).tolist(),
                         (ones * zeros / count).tolist(), zeros.tolist())
            continue
        mean, top = rows.min(axis=1), rows.max(axis=1)
        # Only a granule whose range holds 0 can hold a zero, so only those
        # are compared.  (A NaN fails both bounds, and its mean raises.)
        zeros = np.zeros(len(rows), dtype=np.intp)
        straddle = (mean <= 0.0) & (top >= 0.0)
        if straddle.any():
            held = rows if straddle.all() else rows[straddle]
            zeros[straddle] = np.count_nonzero(held == 0.0, axis=1)
        m2 = np.zeros(len(rows))
        # A constant granule keeps its min as the mean and a spread of
        # exactly zero.  (The pairwise sum of a non-power-of-two count of
        # equal values can round, which would leak a bogus ~1e-16 spread
        # into z-scores of deterministic samplers.)
        varied = mean != top
        spread = rows if varied.all() else rows[varied]
        # A sum past the double range is inf, and the estimate refuses it.
        with np.errstate(over="ignore"):
            row_mean = np.add.reduce(spread, axis=1) / count
        deviation = spread - row_mean[:, None]
        np.square(deviation, out=deviation)
        mean[varied] = row_mean
        with np.errstate(over="ignore"):
            m2[varied] = np.add.reduce(deviation, axis=1)
        stats += zip([count] * len(rows), mean.tolist(), m2.tolist(), zeros.tolist())
    return stats


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
    def merge(lo: int, hi: int) -> _Stats:
        if hi - lo == 1:
            return stats[lo]
        mid = (lo + hi) // 2
        return _merge_pair(merge(lo, mid), merge(mid, hi))

    return merge(0, len(stats))


def _shutdown_pool() -> None:
    global _POOL
    if _POOL is not None:
        _POOL[0].shutdown()
        _POOL = None


atexit.register(_shutdown_pool)


def _pool(workers: int):
    """The process-wide pool, with at least ``workers`` processes.

    It is started by the first call that runs two or more workers and kept
    for later calls, which then pay only for pickling their slabs and
    results; a call that needs more processes than it has replaces it.  Its
    processes are forked where the platform can and this process runs a
    single thread, so they start with numpy and the package loaded and
    leave no helper process behind.  A fork of a process that runs other
    threads may copy a lock that one of them holds, so there, and where the
    platform cannot fork, they are spawned.  The pool is shut down at exit.
    """
    global _POOL
    if _POOL is None or _POOL[1] < workers:
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor

        _shutdown_pool()
        fork = "fork" in multiprocessing.get_all_start_methods()
        method = "fork" if fork and threading.active_count() == 1 else "spawn"
        _POOL = (ProcessPoolExecutor(workers, multiprocessing.get_context(method)), workers)
    return _POOL[0]


def _run_tasks(run_slab, offsets: range, workers: int) -> list:
    """``run_slab`` over ``workers`` contiguous slabs of the task offsets, in
    order; one worker runs a single slab of them all inline."""
    workers = min(workers, len(offsets))  # no more slabs than tasks
    if workers == 1:
        return [run_slab(offsets)]
    cuts = [len(offsets) * i // workers for i in range(workers + 1)]
    slabs = [offsets[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(_pool(workers).map(run_slab, slabs))
    except BrokenProcessPool:
        _shutdown_pool()  # a lost process breaks the pool; the next call starts one
        raise


def _run_slab(make_values, n: int, step: int, block: int, size: int,
              offsets: range) -> tuple[list[_Stats], int]:
    """The granule stats and summed tallies of the tasks at ``offsets``, in
    order, all generated in one workspace of ``size`` draws.  A task covers
    samples [offset, offset + step) cut at n, generated in blocks of at
    most ``block`` samples."""
    workspace = Workspace(size)
    stats: list[_Stats] = []
    tally = 0
    for offset in offsets:
        stop = min(offset + step, n)
        if stop - offset <= block:
            values, task_tally = make_values(offset, stop - offset, workspace)
        else:
            values, task_tally = np.empty(stop - offset), 0
            for i in range(offset, stop, block):
                part, part_tally = make_values(i, min(block, stop - i), workspace)
                values[i - offset : i - offset + len(part)] = part
                task_tally += part_tally
        stats += _granule_stats(values)
        tally += task_tally
    return stats, tally


def _stats_over_blocks(
    make_values, n: int, chunks: int, width: int = 1
) -> tuple[_Stats, int]:
    """Evaluate ``make_values(offset, count, workspace) -> (values, tally)``
    over samples [0, n), stat each granule of 4096 samples separately (one
    :func:`_granule_stats` call per task) and merge them by :func:`_merge_tree`.
    ``width`` is the draws per sample, already range-checked.  Blocks are
    ``max(1, 2^16 // width)`` samples, so none holds more than
    ``max(2^16, width)`` draws; a task is the whole granules of one block, or
    one granule generated block by block.  The counter-based streams make
    every result bit independent of the cut.

    With two or more workers, ``make_values`` must pickle: the tasks are
    cut into one contiguous slab per worker, and each slab runs in a process
    of the pool (:func:`_pool`).  Each slab makes one
    :class:`~insidermc.sampling.Workspace` of one block's draws and passes it
    to every block it generates, so the Gaussian layer reuses memory that is
    already mapped instead of faulting fresh temporaries in per block; the
    inverse CDF keeps its own central temporaries in
    :mod:`~insidermc.special`.  A block's values may live in the workspace;
    they are statted or copied before the next block.
    Returns the merged (count, mean, M2, zeros) and the sum of the tallies.
    """
    workers = min(chunks, os.cpu_count() or 1)
    block = max(1, _TASK_TARGET // width)
    step = GRANULE * max(1, block // GRANULE)
    run_slab = partial(_run_slab, make_values, n, step, block, max(_TASK_TARGET, width))
    results = _run_tasks(run_slab, range(0, n, step), workers)
    stats = [s for slab_stats, _ in results for s in slab_stats]
    return _merge_tree(stats), sum(tally for _, tally in results)


def _finalize(stats: _Stats, clamp_count: int) -> MCEstimate:
    """The estimate of merged stats, with the harness's tally as clamp count."""
    n, mean, m2, zeros = stats
    # Finite exactly when M2 is, so the record's range check covers M2.
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return MCEstimate(n, mean, stderr, zeros / n, clamp_count)


def _check_counts(n: int, chunks: int, draws: int) -> None:
    """Refuse a bad sample or worker count and, before anything is drawn, an
    estimate whose counters 0 .. n*draws - 1 leave the stream.  ``draws`` is
    each estimator's draws per sample, stated here and nowhere else."""
    # Python or numpy integers only; integral floats are refused too.
    if not isinstance(n, numbers.Integral) or n < 2:
        raise BadSampleCountError(f"need an integer n >= 2 samples, got {n!r}")
    if not isinstance(chunks, numbers.Integral) or chunks < 1:
        raise OutOfDomainError(f"chunks must be an integer >= 1, got {chunks!r}")
    _check_range(0, int(n) * draws)


# Each estimator's ``make_values`` is one of these, its leading arguments
# bound by functools.partial, so that it pickles for the pool.  Generators
# and samplers are looked up by module name per block, never bound, so a
# wrapper patched onto this module's attributes sees every call made in
# this process.


def _front(p: MarketParams, stream: RngStream, a: float, wick: bool,
           offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
    """The kernel at level a on uniforms; b is formed only where a value
    reads it, in the workspace."""
    u = uniform_block(stream, offset, count, out=workspace)
    return _uniform_insider_values(p, u, a, wick, workspace), 0


def _stock_leg(p: MarketParams, m1: float, stream: RngStream, start: int,
               offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
    """The stock leg of m1, on B_T at counters from start."""
    b_t = brownian_terminal_block(stream, start + offset, count, p.T, out=workspace)
    return _stock_values(p, m1, b_t), 0


def _euler_level(p: MarketParams, n_steps: int, stream: RngStream,
                 offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
    """Euler paths of n_steps steps, with their clamp count as the tally."""
    increments = brownian_increments_block(stream, offset, count, p.T, n_steps, out=workspace)
    values, clamped = forward_euler_values(p, increments)
    return values, int(np.count_nonzero(clamped))


def _bet(p: MarketParams, stream: RngStream, a: float,
         offset: int, count: int, workspace: Workspace) -> tuple[np.ndarray, int]:
    """1{b > a} as a bool mask, statted by counts: a normal only in the band."""
    u = uniform_block(stream, offset, count, out=workspace)
    return _uniform_bet(p, u, a, workspace), 0


def estimate_mean(
    trader: Trader,
    p: MarketParams,
    n: int,
    seed: int,
    chunks: int = 1,
) -> MCEstimate:
    """Mean terminal wealth of the kernel at ``trader``'s reading, over draws 0..n-1.

    The result is bitwise independent of ``chunks``.
    """
    _check_counts(n, chunks, 1)
    try:
        trader = Trader(trader)
    except ValueError as exc:
        raise UnknownTraderError(f"unknown trader tag {trader!r}") from exc
    stream = RngStream(seed)
    a, wick = trader.reading(p)
    bond = _bond_value(p, p.M)  # checked at every level, as the kernel does
    if a == math.inf:
        # Every value is the bond, and Chan's merge of equal means with M2 = 0
        # is exact: this is the estimate the draws would give, and none is made.
        return MCEstimate(int(n), bond, 0.0, 0.0)

    # At a = -inf every value is the stock leg.
    if a == -math.inf:
        make_values = partial(_stock_leg, p, p.M, stream, 0)
    else:
        make_values = partial(_front, p, stream, a, wick)
    return _finalize(*_stats_over_blocks(make_values, n, chunks))


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
    n_steps = _require_steps(n_steps)
    _check_counts(n, chunks, n_steps)
    make_values = partial(_euler_level, p, n_steps, RngStream(seed))
    return _finalize(*_stats_over_blocks(make_values, n, chunks, n_steps))


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
    _check_counts(n, chunks, 2)  # sample i reads counters i and n + i
    if not isinstance(stream, RngStream):
        raise OutOfDomainError(f"stream must be an RngStream, got {stream!r}")
    a = indicator_threshold(p)
    bond = _bond_value(p, 1.0)
    (_, p_hat, _, _), _ = _stats_over_blocks(partial(_bet, p, stream, a), n, chunks)
    gbm_values = partial(_stock_leg, p, 1.0, stream, n)
    (_, g_hat, m2_g, _), _ = _stats_over_blocks(gbm_values, n, chunks)
    mean = p.M * ((1.0 - p_hat) * bond + p_hat * g_hat)
    var_p = p_hat * (1.0 - p_hat) / n
    var_g = (m2_g / (n - 1)) / n
    # A certain bet has var_p = 0, and its gap term is 0 even where the
    # gap's square alone would overflow.
    gap = g_hat - bond
    gap_term = gap * gap * var_p if var_p else 0.0
    var = p.M * p.M * (gap_term + p_hat * p_hat * var_g)
    return MCEstimate(n, mean, math.sqrt(var), 0.0)


def z_score(est: MCEstimate, reference: float) -> float:
    """(mean - reference) / stderr, with the exact-match degenerate branch."""
    if est.stderr == 0.0:
        if est.mean == reference:
            return 0.0
        raise DegenerateEstimateError(
            f"zero-spread estimate {est.mean!r} does not match reference {reference!r}"
        )
    return (est.mean - reference) / est.stderr
