import math

import pytest
from hypothesis import assume, given, strategies as st

from insidermc import (
    MarketParams,
    NegativeRateError,
    NonPositiveError,
    NotFiniteError,
    Regime,
    Trader,
    indicator_threshold,
    validate_params,
)
from insidermc.market import classify_regime

NAN = float("nan")


def test_validate_accepts_reference_quintuple():
    p = validate_params(1, 0.05, 0.1, 0.2, 1)
    assert (p.M, p.rho, p.mu, p.sigma, p.T) == (1.0, 0.05, 0.1, 0.2, 1.0)


@pytest.mark.parametrize(
    "raw, exc, field",
    [
        ((0, 0.05, 0.1, 0.2, 1), NonPositiveError, "M"),
        ((-1, 0.05, 0.1, 0.2, 1), NonPositiveError, "M"),
        ((1, 0.05, 0.1, 0, 1), NonPositiveError, "sigma"),
        ((1, 0.05, 0.1, -0.2, 1), NonPositiveError, "sigma"),
        ((1, 0.05, 0.1, 0.2, 0), NonPositiveError, "T"),
        ((1, -0.05, 0.1, 0.2, 1), NegativeRateError, "rho"),
        ((1, 0.05, -0.1, 0.2, 1), NegativeRateError, "mu"),
        ((1, 0.05, NAN, 0.2, 1), NotFiniteError, "mu"),
        ((math.inf, 0.05, 0.1, 0.2, 1), NotFiniteError, "M"),
        ((1, 0.05, 0.1, 0.2, NAN), NotFiniteError, "T"),
    ],
)
def test_validate_rejects_bad_fields(raw, exc, field):
    with pytest.raises(exc) as err:
        validate_params(*raw)
    assert err.value.field == field


def test_zero_rates_admitted_but_flagged():
    assert validate_params(1, 0, 0.5, 1, 1).rate_boundary
    assert validate_params(1, 0.05, 0, 1, 1).rate_boundary
    assert not validate_params(1, 0.05, 0.1, 1, 1).rate_boundary


def test_threshold_reference_values():
    # mu = rho + sigma^2/2 zeroes the numerator
    assert indicator_threshold(validate_params(1, 0, 0.5, 1, 1)) == 0.0
    # mu = rho reduces to sigma*T/2
    assert indicator_threshold(validate_params(1, 0.07, 0.07, 1, 1)) == 0.5
    # (0.05 - 0.1 + 0.02) / 0.2, exact rational arithmetic gives -0.15
    a = indicator_threshold(validate_params(1, 0.05, 0.1, 0.2, 1))
    assert a == pytest.approx(-0.15, abs=1e-15)


def test_regime_classification():
    assert classify_regime(validate_params(1, 0.05, 0.1, 0.2, 1)) is Regime.BULL
    assert classify_regime(validate_params(1, 0.1, 0.05, 0.2, 1)) is Regime.BEAR
    assert classify_regime(validate_params(1, 0.07, 0.07, 0.2, 1)) is Regime.MARGINAL


def test_honest_threshold_ignores_the_draw():
    # Bull: every B_T is above it (all stock); otherwise none is (all bond).
    honest = Trader.HONEST_OPTIMAL
    assert honest.reading(validate_params(1, 0.05, 0.1, 0.2, 1))[0] == -math.inf
    assert honest.reading(validate_params(1, 0.1, 0.05, 0.2, 1))[0] == math.inf
    assert honest.reading(validate_params(1, 0.07, 0.07, 0.2, 1))[0] == math.inf


@pytest.mark.parametrize(
    "raw,honest", [((1, 0.05, 0.1, 0.2, 1), -math.inf), ((1, 0.1, 0.05, 0.2, 1), math.inf),
                   ((1, 0.07, 0.07, 0.2, 1), math.inf)], ids=["bull", "bear", "marginal"])
def test_trader_reading_is_its_level_and_wick_flag(raw, honest):
    p = validate_params(*raw)
    a = indicator_threshold(p)
    assert Trader.HONEST_OPTIMAL.reading(p) == (honest, False)
    assert Trader.FORWARD_INSIDER.reading(p) == (a, False)
    assert Trader.SKOROKHOD_UNBIASED.reading(p) == (a, True)


_rates = st.floats(min_value=0.0, max_value=0.5)
_sigmas = st.floats(min_value=1e-2, max_value=2.0)
_horizons = st.floats(min_value=1e-2, max_value=10.0)


@given(rho=_rates, mu=_rates, sigma=_sigmas, T=_horizons)
def test_threshold_antisymmetry_around_center(rho, mu, sigma, T):
    """Replacing mu by 2 rho + sigma^2 - mu negates the threshold."""
    assume(2 * rho + sigma**2 - mu >= 0)
    p = validate_params(1, rho, mu, sigma, T)
    mirrored = validate_params(1, rho, 2 * rho + sigma**2 - mu, sigma, T)
    a = indicator_threshold(p)
    assert indicator_threshold(mirrored) == pytest.approx(-a, abs=1e-12 * (1 + abs(a)))


@given(rho=_rates, mu=_rates, sigma=_sigmas, T=_horizons, scale=st.floats(1e-2, 1e2))
def test_threshold_linear_in_horizon(rho, mu, sigma, T, scale):
    a1 = indicator_threshold(validate_params(1, rho, mu, sigma, T))
    a2 = indicator_threshold(validate_params(1, rho, mu, sigma, T * scale))
    assert a2 == pytest.approx(a1 * scale, rel=1e-12, abs=1e-300)


def test_params_are_frozen():
    p = validate_params(1, 0.05, 0.1, 0.2, 1)
    with pytest.raises(AttributeError):
        p.mu = 0.2
    classify_regime(p)
    indicator_threshold(p)
    assert p == validate_params(1, 0.05, 0.1, 0.2, 1)

