import dataclasses
import math
import random
import sys
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from insidermc import (
    Regime,
    Trader,
    WealthOverflowError,
    compare_closed_form,
    expected_wealth,
    indicator_threshold,
    normal_cdf,
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
        assert expected_wealth(Trader.HONEST_OPTIMAL, p) == pytest.approx(5.0, abs=1e-12)

    def test_stock_only(self):
        honest = expected_wealth(Trader.HONEST_OPTIMAL, SHOWCASE)
        assert honest == pytest.approx(EXP_HALF, abs=1e-9)

    def test_overflow_error(self):
        p = validate_params(1, 0.05, 800, 0.2, 1)
        with pytest.raises(WealthOverflowError):
            expected_wealth(Trader.HONEST_OPTIMAL, p)


class TestOptimalAllocation:
    """The honest optimum is all of M on the asset with the larger rate."""

    def test_bull_all_stock(self):
        p = validate_params(2, 0.05, 0.1, 0.2, 3)
        assert expected_wealth(Trader.HONEST_OPTIMAL, p) == 2 * math.exp(0.1 * 3)

    def test_bear_all_bond(self):
        p = validate_params(2, 0.1, 0.05, 0.2, 3)
        assert expected_wealth(Trader.HONEST_OPTIMAL, p) == 2 * math.exp(0.1 * 3)

    def test_marginal_convention_and_indifference(self):
        # Every split has the same expectation; the bond and the stock agree.
        p = validate_params(1, 0.07, 0.07, 0.2, 1)
        honest = expected_wealth(Trader.HONEST_OPTIMAL, p)
        assert honest == math.exp(p.rho * p.T) == math.exp(p.mu * p.T)


class TestInsiderExpectations:
    def test_skorokhod_collapses_at_marginal(self):
        p = validate_params(2, 0.05, 0.05, 0.3, 2)
        assert expected_wealth(Trader.SKOROKHOD_UNBIASED, p) == pytest.approx(
            2 * math.exp(0.1), rel=1e-12
        )

    def test_skorokhod_at_zero_threshold(self):
        # mu = rho + sigma^2/2 makes erf argument vanish: (M/2)(e^{rho T} + e^{mu T})
        p = validate_params(1, 0, 0.5, 1, 1)
        assert expected_wealth(Trader.SKOROKHOD_UNBIASED, p) == pytest.approx(
            0.5 * (1 + EXP_HALF), abs=1e-12
        )

    def test_skorokhod_showcase_value(self):
        skorokhod = expected_wealth(Trader.SKOROKHOD_UNBIASED, SHOWCASE)
        assert skorokhod == pytest.approx(SK_SHOWCASE, abs=1e-9)

    def test_forward_showcase_value(self):
        forward = expected_wealth(Trader.FORWARD_INSIDER, SHOWCASE)
        assert forward == pytest.approx(RS_SHOWCASE, abs=1e-9)

    def test_forward_marginal_form(self):
        p = validate_params(1, 0, 0, 1, 1)
        forward = expected_wealth(Trader.FORWARD_INSIDER, p)
        assert forward == pytest.approx(RS_MARGINAL_UNIT, abs=1e-9)

    def test_forward_dominates_by_gaussian_shift_mass(self):
        # rs - sk = M e^{mu T} (Phi(s - a/sqrt T) - Phi(-a/sqrt T))
        for raw in [(1, 0, 0.5, 1, 1), (2, 0.1, 0.05, 0.3, 2), (1, 0.07, 0.07, 0.2, 1)]:
            p = validate_params(*raw)
            at = indicator_threshold(p) / math.sqrt(p.T)
            s = p.sigma * math.sqrt(p.T)
            rhs = p.M * math.exp(p.mu * p.T) * (normal_cdf(s - at) - normal_cdf(-at))
            forward = expected_wealth(Trader.FORWARD_INSIDER, p)
            lhs = forward - expected_wealth(Trader.SKOROKHOD_UNBIASED, p)
            assert rhs > 0
            assert lhs == pytest.approx(rhs, abs=1e-12 * forward)


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


# verify's slack on the evaluated ordering.  Strictly, the evaluated forms can
# tie: where Phi(x) underflows, sk == i to the last bit.
ULP_SLACK = 1.0 + 8.0 * sys.float_info.epsilon


def assert_evaluated_ordering(r):
    assert r.skorokhod <= r.honest_optimal * ULP_SLACK
    assert r.honest_optimal <= r.forward * ULP_SLACK


class TestOrderingProperties:
    def test_bull_ordering_strict(self):
        for p in _random_params(29, 1000, "bull"):
            r = compare_closed_form(p)
            assert r.regime is Regime.BULL
            assert r.ordering_pass
            assert_evaluated_ordering(r)

    def test_bear_ordering_strict(self):
        for p in _random_params(31, 1000, "bear"):
            r = compare_closed_form(p)
            assert r.regime is Regime.BEAR
            assert r.ordering_pass
            assert_evaluated_ordering(r)

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
        assert r.ordering_pass
        assert r.skorokhod == pytest.approx(math.exp(0.05), rel=1e-12)
        # sk == i within MARGINAL_RTOL is the flag's one numeric check.
        off = dataclasses.replace(r, skorokhod=r.honest_optimal * (1 + 1e-11))
        assert not off.ordering_pass

    def test_bear_report(self):
        r = compare_closed_form(validate_params(1, 0.1, 0.05, 0.2, 2))
        assert r.regime is Regime.BEAR
        assert r.skorokhod < r.honest_optimal < r.forward
        assert r.ordering_pass

    def test_near_marginal_bear_point_passes(self):
        # The evaluated forward lies 6.3e-15 relative (28 eps) below the
        # evaluated honest one: an evaluated comparison within verify's
        # 8-ulp slack would read the theorem as broken here.
        p = validate_params(1, 159.99841202424605, 159.99841202424602,
                            7.135560780579376e-14, 4.101039006359969)
        r = compare_closed_form(p)
        assert r.regime is Regime.BEAR
        assert r.forward < r.honest_optimal * (1 - 16 * sys.float_info.epsilon)
        assert r.ordering_pass

    def test_no_bull_or_bear_point_fails_the_ordering(self):
        # M = 10^U(-2, 2), rho U(0, 0.2), mu U(0, 1), sigma 10^U(-5, 0) and
        # T 10^U(-1, 1.5): small sigma puts the forward gap far below an ulp.
        rng = random.Random(3)
        failed = []
        for _ in range(20000):
            raw = (10 ** rng.uniform(-2, 2), rng.uniform(0, 0.2), rng.uniform(0, 1),
                   10 ** rng.uniform(-5, 0), 10 ** rng.uniform(-1, 1.5))
            r = compare_closed_form(validate_params(*raw))
            if r.regime is not Regime.MARGINAL and not r.ordering_pass:
                failed.append(raw)
        assert failed == []

    def test_t_to_zero_all_collapse_to_m(self):
        r = compare_closed_form(validate_params(1, 0.05, 0.1, 0.2, 1e-300))
        for v in (r.honest_optimal, r.skorokhod, r.forward):
            assert v == pytest.approx(1.0, abs=1e-9)


class TestWealthRange:
    """A closed form that rounds to inf raises; it never passes as a value."""

    # M e^{mu T} = 1e308 e is beyond the largest double, 1.797e308.
    HUGE = validate_params(1e308, 0, 1, 1, 1)

    def test_infinite_wealth_raises(self):
        for closed_form in (*(partial(expected_wealth, t) for t in Trader), compare_closed_form):
            with pytest.raises(WealthOverflowError, match="double range"):
                closed_form(self.HUGE)

    def test_infinite_sum_of_finite_legs_raises(self):
        # Marginal: both legs are 1e308 e^{0.1} < 1.797e308 each, but the
        # forward expectation of nearly twice that is not a double.
        p = validate_params(1e308, 0.1, 0.1, 50, 1)
        assert math.isfinite(expected_wealth(Trader.HONEST_OPTIMAL, p))
        with pytest.raises(WealthOverflowError, match="expected wealth"):
            expected_wealth(Trader.FORWARD_INSIDER, p)
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
        (Trader.HONEST_OPTIMAL, reference_honest),
        (Trader.SKOROKHOD_UNBIASED, reference_skorokhod),
        (Trader.FORWARD_INSIDER, reference_forward),
    ]
    for p in points:
        for trader, reference in pinned:
            assert outcome(partial(expected_wealth, trader), p) == outcome(reference, p), p
    forward = partial(expected_wealth, Trader.FORWARD_INSIDER)
    for raw in OVERFLOW_POINTS:
        assert outcome(forward, validate_params(*raw)).startswith("overflow")


@settings(max_examples=200)
@given(
    sigma=st.floats(min_value=0.05, max_value=1.0),
    scale=st.floats(min_value=1.1, max_value=4.0),
)
def test_forward_nondecreasing_in_sigma_at_marginal(sigma, scale):
    p_lo = validate_params(1, 0.05, 0.05, sigma, 1)
    p_hi = validate_params(1, 0.05, 0.05, min(sigma * scale, 4.0), 1)
    forward = partial(expected_wealth, Trader.FORWARD_INSIDER)
    assert forward(p_hi) >= forward(p_lo)
