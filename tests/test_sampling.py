import math

import numpy as np
import pytest

from insidermc import (
    IndexOverflowError,
    NonPositiveError,
    NotFiniteError,
    OutOfDomainError,
    RngStream,
    Trader,
    derive_seed,
    estimate_mean,
    inverse_normal_cdf,
    normal_cdf,
    standard_normal_block,
    validate_params,
)
from insidermc import sampling
from insidermc.sampling import (
    Workspace,
    _brownian_at,
    brownian_increments_block,
    brownian_terminal_block,
    uniform_block,
)
from insidermc.special import _inverse_normal_cdf_array

STREAM = RngStream(42)
SHOWCASE = validate_params(1, 0, 0.5, 1, 1)


def test_seed_validation():
    RngStream(0)
    RngStream(2**64 - 1)
    for bad in (-1, 2**64, 1.5, 7.0):
        with pytest.raises(OutOfDomainError):
            RngStream(bad)


def test_derive_seed_frozen_values():
    # Recorded from the pure-integer splitmix64 finalizer; child seeds feed every
    # report, so any drift here moves every estimate.
    frozen = {
        (0, 0): 0xE220A8397B1DCDAF,
        (42, 0): 0xBDD732262FEB6E95,
        (42, 1): 0x28EFE333B266F103,
        (42, 2): 0x47526757130F9F52,
        (7, 3): 0x953AEB70673E29CB,
        (0xDEADBEEF, 1): 0xDE586A3141A10922,
        (2**64 - 1, 0): 0xE4D971771B652C20,
        (2**64 - 1, 5): 0xD31DADBDA438BB33,
    }
    for (seed, ordinal), child in frozen.items():
        assert derive_seed(seed, ordinal) == child
        assert type(derive_seed(seed, ordinal)) is int
    for bad in (-1, 2**64):
        with pytest.raises(OutOfDomainError):
            derive_seed(bad, 0)
    # The ordinal is a counter of the master stream, checked like any other.
    assert type(derive_seed(1, 2**63 - 1)) is int
    for ordinal, error in [
        (-1, OutOfDomainError), (2**63, IndexOverflowError), (0.0, OutOfDomainError)
    ]:
        with pytest.raises(error):
            derive_seed(1, ordinal)


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


def seed_for_word(word: int, counter: int) -> int:
    """The seed whose stream has ``word`` at ``counter``: the splitmix64
    finalizer undone step by step, mod 2^64, less the Weyl steps."""
    z = word
    z ^= z >> 31 ^ z >> 62
    z = z * pow(sampling._MIX2, -1, 2**64) & sampling._MASK64
    z ^= z >> 27 ^ z >> 54
    z = z * pow(sampling._MIX1, -1, 2**64) & sampling._MASK64
    z ^= z >> 30 ^ z >> 60
    return (z - (counter + 1) * sampling._GOLDEN) & sampling._MASK64


def test_seed_for_word_inverts_the_finalizer():
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2**64, 1000, dtype=np.uint64).tolist()
    counters = rng.integers(0, 2**63, 1000, dtype=np.int64).tolist()
    for word, counter in zip(words, counters):
        seed = seed_for_word(word, counter)
        assert int(sampling._words(seed, counter, 1, Workspace(1))[0]) == word


def test_the_top_uniform_cell_is_clamped_below_one():
    # The word whose top 53 bits are all ones: t + 0.5 rounds to 2^53, so
    # unclamped, u would be 1 and its normal finite but wrong.  The clamp
    # moves no other draw.
    stream = RngStream(seed_for_word(0xFFFFFFFFFFFFF800, 0))
    u = uniform_block(stream, 0, 3)
    assert u[0] == 1.0 - 2.0**-53
    assert [v.hex() for v in u[1:].tolist()] == ["0x1.d770fbb5ca858p-5", "0x1.5da703f68b2fcp-4"]
    z = standard_normal_block(stream, 0, 3)
    assert z[0] == inverse_normal_cdf(1.0 - 2.0**-53) == 8.209536151601387


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


GUARDS = {
    "negative-start": (lambda: uniform_block(STREAM, -1, 4), OutOfDomainError),
    "negative-count": (lambda: standard_normal_block(STREAM, 0, -1), OutOfDomainError),
    "infinite-horizon": (lambda: brownian_terminal_block(STREAM, 0, 4, math.inf), NotFiniteError),
    "nan-horizon": (lambda: brownian_increments_block(STREAM, 0, 4, math.nan, 2), NotFiniteError),
    "zero-horizon": (lambda: brownian_terminal_block(STREAM, 0, 4, 0.0), NonPositiveError),
    "negative-horizon": (
        lambda: brownian_increments_block(STREAM, 0, 4, -1.0, 2), NonPositiveError
    ),
    "no-steps": (lambda: brownian_increments_block(STREAM, 0, 4, 1.0, 0), OutOfDomainError),
    "float-start": (lambda: uniform_block(STREAM, 0.5, 3), OutOfDomainError),
    "float-count": (lambda: uniform_block(STREAM, 0, 2.0), OutOfDomainError),
    "float-steps": (lambda: brownian_increments_block(STREAM, 0, 2, 1.0, 2.5), OutOfDomainError),
    "int64-steps-past-end": (
        lambda: brownian_increments_block(STREAM, np.int64(2**62), 1, 1.0, np.int64(4)),
        IndexOverflowError,
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_block_functions_refuse_bad_ranges_and_horizons(name):
    call, error = GUARDS[name]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("to_int", [np.int64, np.uint64])
def test_numpy_counters_are_the_equal_python_ints(to_int):
    assert np.array_equal(
        uniform_block(STREAM, to_int(3), to_int(5)), uniform_block(STREAM, 3, 5)
    )
    assert np.array_equal(
        brownian_increments_block(STREAM, to_int(7), to_int(2), 1.0, to_int(3)),
        brownian_increments_block(STREAM, 7, 2, 1.0, 3),
    )
    assert derive_seed(42, to_int(2)) == derive_seed(42, 2)


@pytest.mark.parametrize("to_int", [np.int64, np.uint64])
def test_numpy_seeds_are_the_equal_python_ints(to_int):
    assert RngStream(to_int(7)) == RngStream(7)
    assert type(RngStream(to_int(7)).seed) is int
    assert derive_seed(to_int(7), 0) == derive_seed(7, 0)
    numpy_seed = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 4096, seed=to_int(7))
    python_seed = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 4096, seed=7)
    assert (numpy_seed.mean.hex(), numpy_seed.stderr.hex()) == (
        python_seed.mean.hex(), python_seed.stderr.hex()
    )


def reference_normals(seed, start, count):
    """splitmix64 words -> uniforms -> the inverse CDF, one fresh array per
    step."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u = np.minimum(u, 1.0 - 2.0**-53)
    return u, _inverse_normal_cdf_array(u.copy())


BLOCKS = {
    "uniform": (
        lambda start, count, out=None: uniform_block(STREAM, start, count, out),
        lambda start, count: reference_normals(42, start, count)[0],
    ),
    "normal": (
        lambda start, count, out=None: standard_normal_block(STREAM, start, count, out),
        lambda start, count: reference_normals(42, start, count)[1],
    ),
    "terminal": (
        lambda start, count, out=None: brownian_terminal_block(STREAM, start, count, 2.7, out),
        lambda start, count: math.sqrt(2.7) * reference_normals(42, start, count)[1],
    ),
    "increments": (
        lambda start, count, out=None: brownian_increments_block(
            STREAM, start, count, 0.9, 3, out
        ),
        lambda start, count: math.sqrt(0.9 / 3)
        * reference_normals(42, 3 * start, 3 * count)[1].reshape(count, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_workspace_path_is_bitwise_the_allocating_path(name):
    block, reference = BLOCKS[name]
    workspace = Workspace(3 * 4097)
    workspace.words.fill(0xDEADBEEF)
    workspace.scratch.fill(0xFFFFFFFFFFFFFFFF)
    # Counts 0, 1 and odd, each in the buffer the previous block left dirty.
    for start, count in ((0, 0), (5, 1), (2**40, 4097), (77, 3), (2**20, 1023)):
        fresh = block(start, count)
        reused = block(start, count, workspace)
        assert reused.shape == fresh.shape and reused.dtype == fresh.dtype
        assert reused.tobytes() == fresh.tobytes() == reference(start, count).tobytes()
        assert count == 0 or np.shares_memory(reused, workspace.words)
        assert not np.shares_memory(fresh, workspace.words)


def test_workspace_refuses_a_block_it_cannot_hold():
    with pytest.raises(OutOfDomainError):
        standard_normal_block(STREAM, 0, 9, Workspace(8))
    with pytest.raises(OutOfDomainError):
        brownian_increments_block(STREAM, 0, 3, 1.0, 3, Workspace(8))


def test_workspace_holds_no_inverse_cdf_scratch():
    assert not hasattr(Workspace(8), "work")


@pytest.mark.parametrize("pick", ["random", "full", "empty"])
def test_brownian_at_is_bitwise_the_terminal_block(pick, monkeypatch):
    # The uniform fronts' b: a gather of the uniforms, then the block's own
    # inverse CDF and scaling.  An empty gather takes no normal.
    count, T = 5000, 2.7
    at = {
        "random": np.random.default_rng(5).integers(0, count, 1500),
        "full": np.arange(count),
        "empty": np.arange(0),
    }[pick]
    expected = brownian_terminal_block(STREAM, 11, count, T)[at]
    u = uniform_block(STREAM, 11, count)
    kept = u.copy()
    drawn = []

    def spy(x):
        drawn.append(x.size)
        return _inverse_normal_cdf_array(x)

    monkeypatch.setattr(sampling, "_inverse_normal_cdf_array", spy)
    workspace = Workspace(count)
    b_t = _brownian_at(u, at, T, workspace)
    assert b_t.tobytes() == expected.tobytes()
    assert drawn == ([at.size] if at.size else [])
    assert u.tobytes() == kept.tobytes()
    assert at.size == 0 or np.shares_memory(b_t, workspace.scratch)
