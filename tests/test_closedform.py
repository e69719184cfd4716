import math

import pytest
from hypothesis import given, settings, strategies as st

from insidermc import (
    Regime,
    WealthOverflowError,
    compare_closed_form,
    forward_expected_wealth,
    forward_expected_wealth_erf_form,
    honest_expected_wealth,
    indicator_threshold,
    normal_cdf,
    skorokhod_expected_wealth,
    skorokhod_expected_wealth_erf_form,
    validate_params,
    verify,
)
from insidermc.closedform import _check_exp_range, _finite
from insidermc.sampling import RngStream, uniform_block

# mpmath (50 digits) oracle constants, frozen before the implementation:
EXP_HALF = 1.6487212707001282            # e^{0.5}
SK_SHOWCASE = 1.324360635350064           # (1 + e^{0.5}) / 2
RS_SHOWCASE = 1.8871429788350047          # 0.5 + Phi(1) e^{0.5}
RS_MARGINAL_UNIT = 1.3829249225480262     # 1 + erf(1 / (2 sqrt(2)))

SHOWCASE = validate_params(1, 0, 0.5, 1, 1)


class TestHonest:
    def test_t_to_zero_limit(self):
        p = validate_params(5, 0.05, 0.1, 0.2, 1e-300)
        assert honest_expected_wealth(p) == pytest.approx(5.0, abs=1e-12)

    def test_stock_only(self):
        assert honest_expected_wealth(SHOWCASE) == pytest.approx(EXP_HALF, abs=1e-9)

    def test_overflow_error(self):
        p = validate_params(1, 0.05, 800, 0.2, 1)
        with pytest.raises(WealthOverflowError):
            honest_expected_wealth(p)


class TestOptimalAllocation:
    """The honest optimum is all of M on the asset with the larger rate."""

    def test_bull_all_stock(self):
        p = validate_params(2, 0.05, 0.1, 0.2, 3)
        assert honest_expected_wealth(p) == 2 * math.exp(0.1 * 3)

    def test_bear_all_bond(self):
        p = validate_params(2, 0.1, 0.05, 0.2, 3)
        assert honest_expected_wealth(p) == 2 * math.exp(0.1 * 3)

    def test_marginal_convention_and_indifference(self):
        # Every split has the same expectation; the bond and the stock agree.
        p = validate_params(1, 0.07, 0.07, 0.2, 1)
        assert honest_expected_wealth(p) == math.exp(p.rho * p.T) == math.exp(p.mu * p.T)


class TestInsiderExpectations:
    def test_skorokhod_collapses_at_marginal(self):
        p = validate_params(2, 0.05, 0.05, 0.3, 2)
        assert skorokhod_expected_wealth(p) == pytest.approx(
            2 * math.exp(0.1), rel=1e-12
        )

    def test_skorokhod_at_zero_threshold(self):
        # mu = rho + sigma^2/2 makes erf argument vanish: (M/2)(e^{rho T} + e^{mu T})
        p = validate_params(1, 0, 0.5, 1, 1)
        assert skorokhod_expected_wealth(p) == pytest.approx(
            0.5 * (1 + EXP_HALF), abs=1e-12
        )

    def test_skorokhod_showcase_value(self):
        assert skorokhod_expected_wealth(SHOWCASE) == pytest.approx(SK_SHOWCASE, abs=1e-9)

    def test_forward_showcase_value(self):
        assert forward_expected_wealth(SHOWCASE) == pytest.approx(RS_SHOWCASE, abs=1e-9)

    def test_forward_marginal_form(self):
        p = validate_params(1, 0, 0, 1, 1)
        assert forward_expected_wealth(p) == pytest.approx(RS_MARGINAL_UNIT, abs=1e-9)

    def test_forward_dominates_by_gaussian_shift_mass(self):
        # rs - sk = M e^{mu T} (Phi(s - a/sqrt T) - Phi(-a/sqrt T))
        for raw in [(1, 0, 0.5, 1, 1), (2, 0.1, 0.05, 0.3, 2), (1, 0.07, 0.07, 0.2, 1)]:
            p = validate_params(*raw)
            at = indicator_threshold(p) / math.sqrt(p.T)
            s = p.sigma * math.sqrt(p.T)
            rhs = p.M * math.exp(p.mu * p.T) * (normal_cdf(s - at) - normal_cdf(-at))
            lhs = forward_expected_wealth(p) - skorokhod_expected_wealth(p)
            assert rhs > 0
            assert lhs == pytest.approx(rhs, abs=1e-12 * forward_expected_wealth(p))


def _random_params(seed, n, regime):
    u = [uniform_block(RngStream(seed + k), 0, n) for k in range(5)]
    out = []
    for i in range(n):
        M = 0.1 * 100.0 ** u[0][i]
        if regime == "bull":
            rho, mu = 0.2 * u[1][i], 0.2 * u[1][i] + 0.5 * u[2][i]
        elif regime == "bear":
            mu, rho = 0.2 * u[1][i], 0.2 * u[1][i] + 0.5 * u[2][i]
        else:
            rho = mu = 0.2 * u[1][i]
        out.append(validate_params(M, rho, mu, 0.05 + 0.95 * u[3][i], 0.1 + 9.9 * u[4][i]))
    return out


class TestParametrizationEquivalence:
    def test_erf_and_phi_forms_agree(self):
        """Both displayed forms match the Phi evaluation to 1e-12 relative."""
        params = (
            _random_params(11, 4000, "bull")
            + _random_params(17, 3000, "bear")
            + _random_params(23, 3000, "marginal")
        )
        for p in params:
            sk, sk_erf = skorokhod_expected_wealth(p), skorokhod_expected_wealth_erf_form(p)
            rs, rs_erf = forward_expected_wealth(p), forward_expected_wealth_erf_form(p)
            assert sk == pytest.approx(sk_erf, rel=1e-12)
            assert rs == pytest.approx(rs_erf, rel=1e-12)


class TestOrderingProperties:
    def test_bull_ordering_strict(self):
        for p in _random_params(29, 1000, "bull"):
            r = compare_closed_form(p)
            assert r.regime is Regime.BULL
            assert r.sk_ok and r.rs_ok

    def test_bear_ordering_strict(self):
        for p in _random_params(31, 1000, "bear"):
            r = compare_closed_form(p)
            assert r.regime is Regime.BEAR
            assert r.sk_ok and r.rs_ok

    def test_marginal_identities(self):
        for p in _random_params(37, 1000, "marginal"):
            r = compare_closed_form(p)
            assert r.regime is Regime.MARGINAL
            assert abs(r.skorokhod - r.honest_optimal) <= 1e-12 * r.honest_optimal
            assert r.forward > r.honest_optimal
            reference = p.M * (
                1 + math.erf(p.sigma * math.sqrt(p.T) / (2 * math.sqrt(2)))
            ) * math.exp(p.rho * p.T)
            assert r.forward == pytest.approx(reference, rel=1e-12)


class TestCompare:
    def test_showcase_report(self):
        r = compare_closed_form(SHOWCASE)
        assert r.honest_optimal == pytest.approx(EXP_HALF, abs=1e-9)
        assert r.skorokhod == pytest.approx(SK_SHOWCASE, abs=1e-9)
        assert r.forward == pytest.approx(RS_SHOWCASE, abs=1e-9)
        assert r.ordering_pass
        assert r.params.rate_boundary  # rho == 0

    def test_marginal_flags(self):
        r = compare_closed_form(validate_params(1, 0.05, 0.05, 0.2, 1))
        assert r.regime is Regime.MARGINAL
        assert r.sk_ok and r.rs_ok
        assert r.skorokhod == pytest.approx(math.exp(0.05), rel=1e-12)

    def test_bear_report(self):
        r = compare_closed_form(validate_params(1, 0.1, 0.05, 0.2, 2))
        assert r.regime is Regime.BEAR
        assert r.skorokhod < r.honest_optimal < r.forward
        assert r.ordering_pass

    def test_t_to_zero_all_collapse_to_m(self):
        r = compare_closed_form(validate_params(1, 0.05, 0.1, 0.2, 1e-300))
        for v in (r.honest_optimal, r.skorokhod, r.forward):
            assert v == pytest.approx(1.0, abs=1e-9)


class TestWealthRange:
    """A closed form that rounds to inf raises; it never passes as a value."""

    # M e^{mu T} = 1e308 e is beyond the largest double, 1.797e308.
    HUGE = validate_params(1e308, 0, 1, 1, 1)

    def test_infinite_wealth_raises(self):
        for closed_form in (
            honest_expected_wealth,
            skorokhod_expected_wealth,
            forward_expected_wealth,
            skorokhod_expected_wealth_erf_form,
            forward_expected_wealth_erf_form,
            compare_closed_form,
        ):
            with pytest.raises(WealthOverflowError, match="double range"):
                closed_form(self.HUGE)

    def test_infinite_sum_of_finite_legs_raises(self):
        # Marginal: both legs are 1e308 e^{0.1} < 1.797e308 each, but the
        # forward expectation of nearly twice that is not a double.
        p = validate_params(1e308, 0.1, 0.1, 50, 1)
        assert math.isfinite(honest_expected_wealth(p))
        with pytest.raises(WealthOverflowError, match="expected wealth"):
            forward_expected_wealth(p)
        with pytest.raises(WealthOverflowError):
            compare_closed_form(p)


# Reference: the three expectations as three formulas, the honest one picking
# its asset through max(rho, mu).  The one kernel mean must give their bits.
def reference_honest(p):
    _check_exp_range(p)
    return p.M * math.exp(max(p.rho, p.mu) * p.T)


def reference_skorokhod(p):
    _check_exp_range(p)
    at = indicator_threshold(p) / math.sqrt(p.T)
    return _finite(p.M * (
        normal_cdf(at) * math.exp(p.rho * p.T) + normal_cdf(-at) * math.exp(p.mu * p.T)
    ))


def reference_forward(p):
    _check_exp_range(p)
    at = indicator_threshold(p) / math.sqrt(p.T)
    s = p.sigma * math.sqrt(p.T)
    return _finite(p.M * (
        normal_cdf(at) * math.exp(p.rho * p.T) + normal_cdf(s - at) * math.exp(p.mu * p.T)
    ))


def outcome(closed_form, p):
    """The value's exact bits, or the overflow message."""
    try:
        return closed_form(p).hex()
    except WealthOverflowError as exc:
        return f"overflow: {exc}"


RATE_BOUNDARY_POINTS = [
    (1, 0, 0.5, 1, 1), (2, 0, 0.3, 0.5, 2), (1, 0.4, 0, 0.3, 2), (1, 0, 0, 0.2, 3),
]
OVERFLOW_POINTS = [
    (1e308, 0, 1, 1, 1),  # M e^{mu T} is not a double
    (1e308, 1, 0, 1, 1),  # nor is M e^{rho T}
    (1, 0.05, 800, 0.2, 1),  # mu T beyond the exponential range
    (1, 800, 0.05, 0.2, 1),  # rho T likewise
    (1e308, 0.1, 0.1, 50, 1),  # finite legs whose forward sum is not a double
]


def test_one_kernel_mean_is_bitwise_the_three_formulas():
    points = [
        validate_params(*raw)
        for raw in verify.GRID + RATE_BOUNDARY_POINTS + OVERFLOW_POINTS
    ] + [
        p for regime in ("bull", "bear", "marginal")
        for p in verify._params_from_uniforms(verify.DEFAULT_SEED, regime)
    ]
    assert len(points) > 3000
    pinned = [
        (honest_expected_wealth, reference_honest),
        (skorokhod_expected_wealth, reference_skorokhod),
        (forward_expected_wealth, reference_forward),
    ]
    for p in points:
        for closed_form, reference in pinned:
            assert outcome(closed_form, p) == outcome(reference, p), p
    for raw in OVERFLOW_POINTS:
        assert outcome(forward_expected_wealth, validate_params(*raw)).startswith("overflow")


@settings(max_examples=200)
@given(
    sigma=st.floats(min_value=0.05, max_value=1.0),
    scale=st.floats(min_value=1.1, max_value=4.0),
)
def test_forward_nondecreasing_in_sigma_at_marginal(sigma, scale):
    p_lo = validate_params(1, 0.05, 0.05, sigma, 1)
    p_hi = validate_params(1, 0.05, 0.05, min(sigma * scale, 4.0), 1)
    assert forward_expected_wealth(p_hi) >= forward_expected_wealth(p_lo)
