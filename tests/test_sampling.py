import math

import numpy as np
import pytest

from insidermc import (
    IndexOverflowError,
    OutOfDomainError,
    RngStream,
    normal_cdf,
    standard_normal_block,
    uniform_block,
)
from insidermc.sampling import brownian_increments_block, brownian_terminal_block

STREAM = RngStream(42)


def test_seed_validation():
    RngStream(0)
    RngStream(2**64 - 1)
    for bad in (-1, 2**64, 1.5):
        with pytest.raises(OutOfDomainError):
            RngStream(bad)


def normal_at(stream, index):
    return float(standard_normal_block(stream, index, 1)[0])


def test_draws_are_deterministic():
    a = normal_at(STREAM, 7)
    b = normal_at(RngStream(42), 7)
    assert a == b
    assert a != normal_at(STREAM, 8)
    assert a != normal_at(RngStream(43), 7)


def test_chunk_independence_bitwise():
    """One pass or any contiguous chunking yields identical values."""
    n = 10_000
    full = standard_normal_block(STREAM, 0, n)
    for boundaries in ([0, n], [0, 1, n], [0, 4096, 8192, n], [0, 33, 4000, 9999, n]):
        pieces = [
            standard_normal_block(STREAM, lo, hi - lo)
            for lo, hi in zip(boundaries, boundaries[1:])
        ]
        assert np.array_equal(np.concatenate(pieces), full)


def test_uniforms_open_interval():
    u = uniform_block(STREAM, 0, 100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_sample_moments():
    # CLT bounds at ~4 standard errors for n = 1e6
    z = standard_normal_block(STREAM, 0, 1_000_000)
    assert abs(z.mean()) <= 0.004
    assert abs(z.var() - 1.0) <= 0.006


def test_kolmogorov_smirnov():
    n = 100_000
    z = np.sort(standard_normal_block(STREAM, 0, n))
    cdf = np.array([normal_cdf(float(x)) for x in z[::37]])
    ranks = np.arange(0, n, 37)
    d_plus = np.max((ranks + 1) / n - cdf)
    d_minus = np.max(cdf - ranks / n)
    assert max(d_plus, d_minus) < 1.95 / math.sqrt(n) + 37 / n


def test_kolmogorov_smirnov_full():
    from scipy import stats

    z = standard_normal_block(STREAM, 0, 100_000)
    d = stats.kstest(z, "norm").statistic
    assert d < 1.95 / math.sqrt(z.size)


def test_brownian_terminal_scaling():
    b1 = brownian_terminal_block(STREAM, 5, 1, 1.0)
    assert b1.shape == (1,)
    assert b1[0] == normal_at(STREAM, 5)
    assert brownian_terminal_block(STREAM, 5, 1, 4.0)[0] == 2.0 * normal_at(STREAM, 5)


def test_brownian_terminal_variance():
    b = brownian_terminal_block(STREAM, 0, 1_000_000, 2.0)
    assert abs(b.var() - 2.0) <= 0.012


def test_increments_sum_to_terminal():
    # Path 3 of 16 steps sums the scaled normals at counters 48..63.
    inc = brownian_increments_block(STREAM, 3, 1, 2.5, 16)
    assert inc.shape == (1, 16)
    terminal = math.sqrt(2.5 / 16) * standard_normal_block(STREAM, 48, 16).sum()
    assert abs(inc.sum() - terminal) <= 1e-12 * math.sqrt(2.5)


def test_increments_single_step_matches_terminal_subindex():
    inc = brownian_increments_block(STREAM, 9, 1, 1.7, 1)
    # n_steps = 1 consumes exactly raw counter 9
    assert inc[0, 0] == brownian_terminal_block(STREAM, 9, 1, 1.7)[0]


def test_increments_disjoint_counter_ranges():
    n_steps = 8
    block = brownian_increments_block(STREAM, 0, 4, 1.0, n_steps)
    flat = standard_normal_block(STREAM, 0, 4 * n_steps) * math.sqrt(1.0 / n_steps)
    assert np.array_equal(block.reshape(-1), flat)


def test_increments_terminal_variance():
    inc = brownian_increments_block(STREAM, 0, 100_000, 1.0, 256)
    terminal = inc.sum(axis=1)
    assert abs(terminal.var() - 1.0) <= 0.02


def test_index_overflow():
    with pytest.raises(IndexOverflowError):
        brownian_increments_block(STREAM, 2**62, 1, 1.0, 4)
    with pytest.raises(IndexOverflowError):
        standard_normal_block(STREAM, 2**63, 1)
