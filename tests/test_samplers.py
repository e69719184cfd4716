import math

import numpy as np
import pytest

from insidermc import (
    Allocation,
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
        tol = max(3 * euler.estimate.stderr, 0.02 * reference)
        assert abs(euler.estimate.mean - reference) <= tol
        assert euler.clamp_count == 0
