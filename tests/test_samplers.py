import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from insidermc import (
    Allocation,
    MarketParams,
    OutOfDomainError,
    WealthOverflowError,
    indicator_threshold,
    validate_params,
)
from insidermc.samplers import (
    forward_euler_values,
    forward_insider_values,
    honest_values,
    skorokhod_unbiased_values,
)
from insidermc.sampling import RngStream, brownian_increments_block

SHOWCASE = validate_params(1, 0, 0.5, 1, 1)  # threshold a = 0

# mpmath oracle values
EXP_01 = 1.1051709180756477   # e^{0.1}
EXP_018 = 1.1972173631218102  # e^{0.18}
EXP_03 = 1.3498588075760032   # e^{0.3}


def one(sampler, p, b, *rest):
    """The sampler's value at the single terminal value b."""
    (value,) = sampler(p, *rest, np.array([float(b)]))
    return float(value)


class TestHonest:
    def test_vanishing_exponent(self):
        # mu = sigma^2/2 and b = 0 leave the stock leg at its initial value
        p = validate_params(1, 0.05, 0.02, 0.2, 1)
        assert one(honest_values, p, 0.0, Allocation(0, 1)) == 1.0

    def test_bond_only_ignores_noise(self):
        p = validate_params(1, 0.05, 0.1, 0.2, 2)
        values = honest_values(p, Allocation(1, 0), np.array([-3.0, 0.0, 4.0]))
        assert values == pytest.approx([EXP_01] * 3, abs=1e-9)

    def test_stock_leg_formula(self):
        p = validate_params(1, 0.05, 0.1, 0.2, 1)
        # exp((0.1 - 0.02)*1 + 0.2*0.5) = exp(0.18)
        assert one(honest_values, p, 0.5, Allocation(0, 1)) == pytest.approx(EXP_018, abs=1e-9)

    def test_overflow_reported(self):
        p = validate_params(1, 0.05, 0.5, 1, 1)
        with pytest.raises(WealthOverflowError):
            honest_values(p, Allocation(0, 1), np.array([800.0]))


class TestForwardInsider:
    def test_indicator_selects_bond_below_threshold(self):
        a = indicator_threshold(SHOWCASE)
        assert one(forward_insider_values, SHOWCASE, a - 1.0) == SHOWCASE.M * math.exp(0.0)

    def test_boundary_goes_to_bond(self):
        a = indicator_threshold(SHOWCASE)
        assert one(forward_insider_values, SHOWCASE, a) == SHOWCASE.M * math.exp(0.0)

    def test_stock_branch_formula(self):
        # a = 0 and b = 0.3 > a selects the stock: exp((0.5-0.5)*1 + 0.3)
        assert one(forward_insider_values, SHOWCASE, 0.3) == pytest.approx(EXP_03, abs=1e-9)


class TestSkorokhodTranslation:
    def test_bond_region(self):
        a = indicator_threshold(SHOWCASE)
        assert one(skorokhod_unbiased_values, SHOWCASE, a - 1.0) == SHOWCASE.M

    def test_dead_zone_is_exactly_zero(self):
        # a < b <= a + sigma T: both indicators off
        a = indicator_threshold(SHOWCASE)
        sigma_t = SHOWCASE.sigma * SHOWCASE.T
        b = np.array([a + 0.5 * sigma_t, a + sigma_t, a + 1e-12])
        assert np.array_equal(skorokhod_unbiased_values(SHOWCASE, b), np.zeros(3))

    def test_shifted_stock_region(self):
        a = indicator_threshold(SHOWCASE)
        b = a + SHOWCASE.sigma * SHOWCASE.T + 1.0
        value = one(skorokhod_unbiased_values, SHOWCASE, b)
        assert value == pytest.approx(math.exp(0.0 + 1.0 * b), rel=1e-15)

    def test_dead_zone_boundaries_half_open(self):
        a = indicator_threshold(SHOWCASE)
        sigma_t = SHOWCASE.sigma * SHOWCASE.T
        # b = a stays on the bond; b = a + sigma_t is still dead
        assert one(skorokhod_unbiased_values, SHOWCASE, a) == SHOWCASE.M
        assert one(skorokhod_unbiased_values, SHOWCASE, a + sigma_t) == 0.0


class TestForwardEuler:
    def test_needs_increments(self):
        # A 1-d array of terminal values is not a (n_paths, n_steps) block.
        with pytest.raises(OutOfDomainError):
            forward_euler_values(SHOWCASE, np.array([0.0, 0.5]))
        with pytest.raises(OutOfDomainError):
            forward_euler_values(SHOWCASE, np.zeros((1, 0)))

    def test_zero_increments_select_bond(self):
        # mu = rho makes a = sigma T / 2 > 0 >= b_T
        p = validate_params(1, 0.05, 0.05, 0.4, 1)
        values, clamped = forward_euler_values(p, np.zeros((1, 8)))
        assert values[0] == p.M * math.exp(p.rho * p.T)
        assert not clamped[0]

    def test_single_step_product(self):
        b_t = 0.9  # above a = 0
        values, _ = forward_euler_values(SHOWCASE, np.array([[b_t]]))
        expected = SHOWCASE.M * (1 + SHOWCASE.mu * SHOWCASE.T + SHOWCASE.sigma * b_t)
        assert values[0] == pytest.approx(expected, rel=1e-15)

    def test_negative_step_clamps_to_zero(self):
        p = validate_params(1, 0.0, 0.1, 1.0, 1.0)  # threshold a = 0.4
        inc = np.array([[2.0, -1.5, 0.5]])  # b_t = 1 > a; second factor negative
        values, clamped = forward_euler_values(p, inc)
        assert clamped[0]
        assert values[0] == 0.0  # stock leg clamped, bond leg off (b_t > a)

    def test_weak_agreement_with_closed_form(self):
        from insidermc import forward_expected_wealth
        from insidermc.montecarlo import estimate_euler_mean

        euler = estimate_euler_mean(SHOWCASE, 256, 100_000, seed=2024_08)
        reference = forward_expected_wealth(SHOWCASE)
        tol = max(3 * euler.stderr, 0.02 * reference)
        assert abs(euler.mean - reference) <= tol
        assert euler.clamp_count == 0


def loop_euler(p: MarketParams, increments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference Euler kernel: one explicit step per column, clamping at 0."""
    n_steps = increments.shape[1]
    dt = p.T / n_steps
    stock_on = increments.sum(axis=1) > indicator_threshold(p)
    s1 = np.where(stock_on, p.M, 0.0)
    clamped = np.zeros(increments.shape[0], dtype=bool)
    growth = 1.0 + p.mu * dt
    for k in range(n_steps):
        s1 = s1 * (growth + p.sigma * increments[:, k])
        negative = s1 < 0.0
        if negative.any():
            clamped |= negative
            s1[negative] = 0.0
    values = np.where(stock_on, 0.0, p.M * math.exp(p.rho * p.T)) + s1
    return values, clamped


# sigma is a power of two, so -growth / sigma is exact and its factor is 0.
ORACLE_POINTS = [
    validate_params(1, 0, 0.5, 1, 1),
    validate_params(2.5, 0.01, 0.3, 2, 2),
    validate_params(1, 0.05, 0.05, 0.5, 1),
]


@st.composite
def euler_blocks(draw):
    """(params, increments) mixing plain, stock-lifting, negative-factor and
    zero-factor cells."""
    p = draw(st.sampled_from(ORACLE_POINTS))
    n_paths = draw(st.integers(1, 6))
    n_steps = draw(st.integers(1, 9))
    growth = 1.0 + p.mu * (p.T / n_steps)
    cells = st.one_of(
        st.floats(-3.0, 3.0),
        st.floats(3.0, 30.0),  # lifts b_T above the threshold: stock paths
        st.floats(1.0, 4.0).map(lambda x: -(growth + x) / p.sigma),  # factor < 0
        st.just(-growth / p.sigma),  # factor exactly 0
    )
    flat = draw(st.lists(cells, min_size=n_paths * n_steps, max_size=n_paths * n_steps))
    return p, np.array(flat).reshape(n_paths, n_steps)


def assert_matches_loop(p, inc):
    values, clamped = forward_euler_values(p, inc)
    ref_values, ref_clamped = loop_euler(p, inc)
    assert values.tobytes() == ref_values.tobytes()
    assert np.array_equal(clamped, ref_clamped)


@given(euler_blocks())
def test_euler_kernel_matches_step_loop_bitwise(block):
    assert_matches_loop(*block)


def test_euler_oracle_inputs_cover_every_branch():
    p = ORACLE_POINTS[1]  # a = 1.71
    growth = 1.0 + p.mu * (p.T / 3)
    zero, neg = -growth / p.sigma, -(growth + 1.0) / p.sigma  # factors 0 and -1
    inc = np.array([
        [1.0, 1.0, 1.0],    # stock, no clamp
        [neg, 3.0, 3.0],    # stock, negative first factor: clamped
        [zero, 3.0, 3.0],   # stock, exact-zero factor: 0, not clamped
        [zero, neg, 9.0],   # stock, zero then negative: -0.0, not clamped
        [3.0, 3.0, zero],   # stock, zero at the last step
        [-1.0, 0.5, 0.0],   # bond
        [neg, 0.0, 0.0],    # bond with a negative factor
    ])
    values, clamped = forward_euler_values(p, inc)
    assert clamped.tolist() == [False, True, False, False, False, False, False]
    assert values[1] == values[2] == values[3] == values[4] == 0.0
    assert values[5] == values[6] == p.M * math.exp(p.rho * p.T)
    assert_matches_loop(p, inc)
    assert_matches_loop(p, inc[:, :1])  # n_steps = 1


def test_euler_overflow_raises_without_warning():
    p = validate_params(1e300, 0, 600, 3, 1)
    inc = brownian_increments_block(RngStream(0), 0, 8192, p.T, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WealthOverflowError):
            forward_euler_values(p, inc)


def test_euler_overflow_after_clamp_is_not_an_overflow():
    # The loop pins the path at 0 at its first step; the later huge factor
    # overflows only the discarded product.
    p = validate_params(1e300, 0, 0, 1, 1)  # a = 0.5
    inc = np.array([[-3.0, 1e10, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, clamped = forward_euler_values(p, inc)
    assert clamped[0] and values[0] == 0.0
    # Overflowing before the clamp is an overflow.
    with pytest.raises(WealthOverflowError):
        forward_euler_values(p, np.array([[1e300, -1e300, 2.0]]))
