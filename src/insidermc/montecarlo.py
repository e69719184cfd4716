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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closedform import honest_optimal_allocation
from .errors import (
    BadSampleCountError,
    DegenerateEstimateError,
    OutOfDomainError,
    UnknownTraderError,
    WealthOverflowError,
)
from .market import Allocation, MarketParams, indicator_threshold
from .samplers import (
    Trader,
    forward_euler_values,
    forward_insider_values,
    honest_values,
    skorokhod_unbiased_values,
)
from .sampling import (
    RngStream,
    brownian_increments_block,
    brownian_terminal_block,
)

__all__ = [
    "MCEstimate",
    "EulerEstimate",
    "estimate_mean",
    "estimate_euler_mean",
    "skorokhod_factorized_estimate",
    "merge_estimates",
    "z_score",
    "GRANULE",
    "CI95",
]

# Granule size of the reduction tree; fixed so results never depend on the
# chunks execution parameter.
GRANULE = 4096
# Two-sided 95% normal quantile; n is always large here, no t-correction.
CI95 = 1.959964
# Target draw count per generation task (whole granules); larger tasks
# amortize numpy call overhead without touching the reduction shape.
_TASK_TARGET = 1 << 22


@dataclass(frozen=True)
class MCEstimate:
    """Result of a Monte Carlo mean estimate.

    ``m2`` is the merged sum of squared deviations backing ``sample_stddev``;
    it is kept so estimates can be merged without re-deriving it from the
    rounded standard deviation.
    """

    n: int
    mean: float
    sample_stddev: float
    stderr: float
    ci95_halfwidth: float
    seed: int
    zero_fraction: float
    m2: float = 0.0

    def z_against(self, reference: float) -> float:
        return z_score(self, reference)


@dataclass(frozen=True)
class EulerEstimate:
    """Mean estimate of the Euler-discretized forward model plus diagnostics."""

    estimate: MCEstimate
    n_steps: int
    clamp_count: int


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
    # Recursive mid-split: tree([a | b]) == merge(tree(a), tree(b)) whenever
    # the halves split at a granule boundary, which makes half-range
    # estimates merge back bitwise.
    if len(stats) == 1:
        return stats[0]
    mid = len(stats) // 2
    return _merge_pair(_merge_tree(stats[:mid]), _merge_tree(stats[mid:]))


def _granule_spans(start: int, n: int) -> list[tuple[int, int]]:
    """(offset, count) pairs covering [start, start+n) in GRANULE pieces."""
    spans = []
    offset = start
    end = start + n
    while offset < end:
        count = min(GRANULE, end - offset)
        spans.append((offset, count))
        offset += count
    return spans


def _run_tasks(tasks, chunks: int):
    # No more threads than there are tasks or cores; one worker runs inline.
    workers = min(chunks, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: task(), tasks))


def _stats_over_blocks(
    make_values, spans, chunks: int, width: int = 1
) -> tuple[list[_Stats], int]:
    """Evaluate ``make_values(offset, count) -> (values, tally)`` over groups
    of granules and stat each granule separately; grouping never crosses the
    reduction.  ``width`` is the number of draws per sample: generation
    tasks shrink with it to bound the block each task holds.  Returns the
    per-granule stats and the sum of the integer tallies.
    """
    per_task = max(1, _TASK_TARGET // (GRANULE * width))
    groups = [spans[i : i + per_task] for i in range(0, len(spans), per_task)]

    def make_task(group):
        def task():
            g_start = group[0][0]
            g_total = sum(c for _, c in group)
            values, tally = make_values(g_start, g_total)
            out = []
            pos = 0
            for _, count in group:
                out.append(_granule_stats(values[pos : pos + count]))
                pos += count
            return out, tally

        return task

    results = _run_tasks([make_task(g) for g in groups], chunks)
    stats = [s for group_stats, _ in results for s in group_stats]
    return stats, sum(tally for _, tally in results)


def _finalize(stats: list[_Stats], seed: int) -> MCEstimate:
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
        ci95_halfwidth=CI95 * stderr,
        seed=seed,
        zero_fraction=zeros / n,
        m2=m2,
    )


def _check_counts(n: int, chunks: int) -> None:
    if n < 2:
        raise BadSampleCountError(f"need n >= 2 samples, got {n}")
    if chunks < 1:
        raise OutOfDomainError(f"chunks must be >= 1, got {chunks}")


def estimate_mean(
    trader: Trader,
    p: MarketParams,
    n: int,
    seed: int,
    chunks: int = 1,
    allocation: Allocation | None = None,
    start: int = 0,
) -> MCEstimate:
    """Mean terminal wealth of ``trader`` over draw indices start..start+n-1.

    ``allocation`` is required for HONEST_FIXED and ignored otherwise.
    The result is bitwise independent of ``chunks``.
    """
    _check_counts(n, chunks)
    try:
        trader = Trader(trader)
    except ValueError as exc:
        raise UnknownTraderError(f"unknown trader tag {trader!r}") from exc
    if trader is Trader.HONEST_FIXED:
        if allocation is None:
            raise OutOfDomainError("HONEST_FIXED needs an explicit allocation")
        alloc = allocation
    elif trader is Trader.HONEST_OPTIMAL:
        alloc = honest_optimal_allocation(p)
    elif trader in (Trader.FORWARD_INSIDER, Trader.SKOROKHOD_UNBIASED):
        alloc = None
    else:  # pragma: no cover - enum is closed
        raise UnknownTraderError(f"no sampler for trader {trader!r}")

    stream = RngStream(seed)

    def make_values(offset: int, count: int) -> tuple[np.ndarray, int]:
        b_t = brownian_terminal_block(stream, offset, count, p.T)
        if trader in (Trader.HONEST_FIXED, Trader.HONEST_OPTIMAL):
            return honest_values(p, alloc, b_t), 0
        if trader is Trader.FORWARD_INSIDER:
            return forward_insider_values(p, b_t), 0
        return skorokhod_unbiased_values(p, b_t), 0

    stats, _ = _stats_over_blocks(make_values, _granule_spans(start, n), chunks)
    return _finalize(stats, seed)


def estimate_euler_mean(
    p: MarketParams,
    n_steps: int,
    n: int,
    seed: int,
    chunks: int = 1,
    start: int = 0,
) -> EulerEstimate:
    """Mean of the Euler-discretized forward model over n paths.

    Each path ``i`` consumes raw draw counters ``i*n_steps .. (i+1)*n_steps-1``,
    so distinct paths and distinct step counts use disjoint index ranges.
    """
    _check_counts(n, chunks)
    if n_steps < 1:
        raise OutOfDomainError(f"n_steps must be >= 1, got {n_steps}")
    stream = RngStream(seed)

    def make_values(offset: int, count: int) -> tuple[np.ndarray, int]:
        inc = brownian_increments_block(stream, offset, count, p.T, n_steps)
        values, clamped = forward_euler_values(p, inc)
        return values, int(np.count_nonzero(clamped))

    stats, clamp_count = _stats_over_blocks(
        make_values, _granule_spans(start, n), chunks, width=n_steps
    )
    return EulerEstimate(
        estimate=_finalize(stats, seed), n_steps=n_steps, clamp_count=clamp_count
    )


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
    a = indicator_threshold(p)
    growth = (p.mu - 0.5 * p.sigma * p.sigma) * p.T

    def indicator_values(offset: int, count: int) -> tuple[np.ndarray, int]:
        b_t = brownian_terminal_block(stream, offset, count, p.T)
        return (b_t > a).astype(np.float64), 0

    def gbm_values(offset: int, count: int) -> tuple[np.ndarray, int]:
        b_t = brownian_terminal_block(stream, offset, count, p.T)
        return np.exp(growth + p.sigma * b_t), 0

    indicator_stats, _ = _stats_over_blocks(indicator_values, _granule_spans(0, n), chunks)
    gbm_stats, _ = _stats_over_blocks(gbm_values, _granule_spans(n, n), chunks)
    np_, p_hat, p_m2, _ = _merge_tree(indicator_stats)
    ng_, g_hat, g_m2, _ = _merge_tree(gbm_stats)

    bond = math.exp(p.rho * p.T)
    mean = p.M * ((1.0 - p_hat) * bond + p_hat * g_hat)
    var_p = p_hat * (1.0 - p_hat) / np_
    var_g = (g_m2 / (ng_ - 1)) / ng_
    try:
        var = p.M * p.M * ((g_hat - bond) ** 2 * var_p + p_hat * p_hat * var_g)
    except OverflowError:
        var = math.inf
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
        ci95_halfwidth=CI95 * stderr,
        seed=stream.seed,
        zero_fraction=0.0,
        m2=0.0,
    )


def merge_estimates(a: MCEstimate, b: MCEstimate) -> MCEstimate:
    """Combine estimates over adjacent index ranges of the same stream.

    Reproduces the full-range estimate bitwise when both halves are whole
    granule runs (the reduction tree splits ranges at their midpoint).
    """
    if a.seed != b.seed:
        raise OutOfDomainError("cannot merge estimates from different seeds")
    stats = _merge_pair(
        (a.n, a.mean, a.m2, round(a.zero_fraction * a.n)),
        (b.n, b.mean, b.m2, round(b.zero_fraction * b.n)),
    )
    return _finalize([stats], a.seed)


def z_score(est: MCEstimate, reference: float) -> float:
    """(mean - reference) / stderr, with the exact-match degenerate branch."""
    if est.stderr == 0.0:
        if est.mean == reference:
            return 0.0
        raise DegenerateEstimateError(
            f"zero-spread estimate {est.mean!r} does not match reference {reference!r}"
        )
    return (est.mean - reference) / est.stderr
