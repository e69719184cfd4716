import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from insidermc import (
    MarketParams,
    OutOfDomainError,
    Regime,
    WealthOverflowError,
    indicator_threshold,
    validate_params,
)
from insidermc.market import classify_regime
from insidermc.samplers import (
    _insider_values,
    _uniform_bet,
    _uniform_insider_values,
    forward_euler_values,
    forward_insider_values,
    honest_values,
    skorokhod_unbiased_values,
)
from insidermc.sampling import (
    RngStream,
    Workspace,
    _uniform_band,
    brownian_increments_block,
    brownian_terminal_block,
)
from insidermc.special import _inverse_normal_cdf_array, normal_cdf
from insidermc.verify import GRID

SHOWCASE = validate_params(1, 0, 0.5, 1, 1)  # threshold a = 0

# mpmath oracle values
EXP_01 = 1.1051709180756477   # e^{0.1}
EXP_018 = 1.1972173631218102  # e^{0.18}
EXP_03 = 1.3498588075760032   # e^{0.3}


def one(sampler, p, b):
    """The sampler's value at the single terminal value b."""
    (value,) = sampler(p, np.array([float(b)]))
    return float(value)


class TestHonest:
    def test_vanishing_exponent(self):
        # bull with mu = sigma^2/2: b = 0 leaves the stock leg at its initial value
        p = validate_params(1, 0.01, 0.02, 0.2, 1)
        assert one(honest_values, p, 0.0) == 1.0

    def test_bond_only_ignores_noise(self):
        # bear: all of M on the bond, whatever b is
        p = validate_params(1, 0.05, 0.04, 0.2, 2)
        values = honest_values(p, np.array([-3.0, 0.0, 4.0]))
        assert values == pytest.approx([EXP_01] * 3, abs=1e-9)

    def test_stock_leg_formula(self):
        p = validate_params(1, 0.05, 0.1, 0.2, 1)
        # exp((0.1 - 0.02)*1 + 0.2*0.5) = exp(0.18)
        assert one(honest_values, p, 0.5) == pytest.approx(EXP_018, abs=1e-9)

    def test_overflow_reported(self):
        p = validate_params(1, 0.05, 0.5, 1, 1)
        with pytest.raises(WealthOverflowError):
            honest_values(p, np.array([800.0]))


def test_stock_leg_past_the_double_range_is_zero_without_warning():
    # At sigma = 1e308 sigma b overflows for |b| > 1.8 and the drift
    # (mu - sigma^2/2) T is -inf: every stock value is +0.0, the bits
    # sigma = 1e200 gets.
    b_t = brownian_terminal_block(RngStream(1), 0, 8192, 1.0)
    assert np.abs(b_t).max() > 1.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = [honest_values(validate_params(1, 0, 0.5, sigma, 1), b_t).tolist()
                 for sigma in (1e308, 1e200)]
    assert [v.hex() for v in found[0]] == [v.hex() for v in found[1]] == ["0x0.0p+0"] * b_t.size


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


def reference_stock(p: MarketParams, b: np.ndarray) -> np.ndarray:
    """The stock leg M exp((mu - sigma^2/2) T + sigma b), one array per step."""
    expo = b * p.sigma + (p.mu - 0.5 * p.sigma * p.sigma) * p.T
    return np.exp(expo) * p.M


def reference_honest(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Reference honest sampler: the pathwise split formula
    m0 e^{rho T} + m1 exp((mu - sigma^2/2) T + sigma b) at the optimal split,
    (0, M) in a bull market and (M, 0) otherwise."""
    m0, m1 = (0.0, p.M) if classify_regime(p) is Regime.BULL else (p.M, 0.0)
    bond = m0 * math.exp(p.rho * p.T)
    if m1 == 0.0:
        return np.full(b_t.shape, bond)
    return reference_stock(p, b_t) + bond


def reference_forward(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Reference forward sampler: bond everywhere, then the stock leg
    gathered where b > a."""
    values = np.full(b_t.shape, p.M * math.exp(p.rho * p.T))
    stock = b_t > indicator_threshold(p)
    values[stock] = reference_stock(p, b_t[stock])
    return values


def reference_skorokhod(p: MarketParams, b_t: np.ndarray) -> np.ndarray:
    """Reference Skorokhod sampler: bond where b <= a, 0 elsewhere, then
    the stock leg where b - sigma T > a."""
    a = indicator_threshold(p)
    values = np.where(b_t <= a, p.M * math.exp(p.rho * p.T), 0.0)
    stock = b_t - p.sigma * p.T > a
    values[stock] = reference_stock(p, b_t[stock])
    return values


def edge_values(p: MarketParams) -> np.ndarray:
    """a and a + sigma T, each with its neighbouring doubles on both sides."""
    a = indicator_threshold(p)
    edges = [a, a + p.sigma * p.T]
    return np.array([
        x for e in edges for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))
    ])


def all_stock_values(p: MarketParams) -> np.ndarray:
    """A block with every draw above a + sigma T: every sampler's stock leg."""
    lift = np.abs(brownian_terminal_block(RngStream(19), 0, 4096 + 3, p.T)) + 0.5
    return indicator_threshold(p) + p.sigma * p.T + lift


KERNEL_SAMPLERS = [
    (forward_insider_values, reference_forward),
    (skorokhod_unbiased_values, reference_skorokhod),
    (honest_values, reference_honest),
]


@pytest.mark.parametrize("sampler, reference", KERNEL_SAMPLERS)
@pytest.mark.parametrize("raw", GRID)
def test_insider_kernel_is_bitwise_the_reference(sampler, reference, raw):
    p = validate_params(*raw)
    blocks = [
        brownian_terminal_block(RngStream(17), 0, 3 * 4096 + 5, p.T),
        np.empty(0),
        edge_values(p),
        all_stock_values(p),
    ]
    for b_t in blocks:
        before = b_t.copy()
        values = sampler(p, b_t)
        assert values.tobytes() == reference(p, before).tobytes()
        assert b_t.tobytes() == before.tobytes()  # the input is never written


@pytest.mark.parametrize(
    "sampler", [forward_insider_values, skorokhod_unbiased_values, honest_values]
)
def test_overflowing_bond_leg_raises(sampler):
    # rho T is in range, but M e^{rho T} is not: the dead zone would read
    # 0 * inf = nan.
    p = validate_params(1e308, 10, 0, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WealthOverflowError):
            sampler(p, np.array([-1.0, 4.0, 20.0]))


def front_readings(p: MarketParams, u: np.ndarray, a: float, wick_only: bool = False) -> list:
    """Skorokhod and forward values of the uniform front at u, and its bet mask
    as a float (only the first with ``wick_only``), each paired with today's
    b-space reading of b = sqrt(T) Phi^{-1}(u): the samplers' kernel, and
    1{b > a} as a float.  The window's normals are computed once, into a
    copy of u, and every case reads them; the fronts share one workspace.
    A reading is the values' bits as uint64, or the message of the overflow
    it raised; :func:`same_reading` compares two."""
    workspace = Workspace(u.size)
    b_t = _inverse_normal_cdf_array(u.copy())
    b_t *= math.sqrt(p.T)
    cases = [
        (lambda v: _uniform_insider_values(p, v, a, True, workspace),
         lambda: _insider_values(p, b_t, a, True)),
        (lambda v: _uniform_insider_values(p, v, a, False, workspace),
         lambda: _insider_values(p, b_t, a, False)),
        (lambda v: _uniform_bet(p, v, a, workspace).astype(np.float64),
         lambda: (b_t > a).astype(np.float64)),
    ]

    def reading(run):
        try:
            return run().view(np.uint64)
        except WealthOverflowError as exc:
            return str(exc)

    return [
        (reading(lambda: front(u.copy())), reading(today))
        for front, today in cases[: 1 if wick_only else 3]
    ]


def same_reading(front, today) -> bool:
    """Whether two readings of :func:`front_readings` are the same bits or
    the same overflow message."""
    if isinstance(front, str) or isinstance(today, str):
        return front == today
    return np.array_equal(front, today)


def front_edges(p: MarketParams, a: float) -> list[float]:
    """The threshold Phi(a/sqrt T) in u and the two edges of its guard band,
    then the same three of Phi((a + sigma T)/sqrt T)."""
    root_t = math.sqrt(p.T)
    shift = p.sigma * p.T
    return [
        normal_cdf(a / root_t), *_uniform_band(a, p.T),
        normal_cdf((a + shift) / root_t), *_uniform_band(a + shift, p.T),
    ]


def doubles_around(centre: float, k: int) -> np.ndarray:
    """The doubles of (0, 1) within k adjacent steps of ``centre``."""
    steps = np.arange(-k, k + 1, dtype=np.int64)
    u = (np.array([centre]).view(np.int64) + steps).view(np.float64)
    return u[(u > 0.0) & (u < 1.0)]


@pytest.mark.parametrize("raw", [*GRID, (1.0, 0.0, 0.5, 3.0, 2.0)])
def test_uniform_front_is_bitwise_the_kernel_around_every_edge(raw):
    # Each side of a band is at least 2^29 ulps wide, so windows of 2^20
    # doubles around the thresholds alone would never reach the draws the
    # front prunes.  Forward
    # and indicator bet at a alone; Skorokhod is read around all six edges.
    p = validate_params(*raw)
    a = indicator_threshold(p)
    probe = doubles_around(0.5, 2)
    assert probe[0] == np.nextafter(np.nextafter(0.5, 0.0), 0.0)  # steps are nextafter's
    assert probe[-1] == np.nextafter(np.nextafter(0.5, 1.0), 1.0)
    for i, centre in enumerate(front_edges(p, a)):
        readings = front_readings(p, doubles_around(centre, 1 << 20), a, wick_only=i >= 3)
        assert all(same_reading(front, today) for front, today in readings)


@st.composite
def front_cases(draw):
    """Parameters whose thresholds sit anywhere from deep in either tail of
    Phi to beyond it (a = +-inf), and uniforms near the thresholds and the
    band edges."""
    p = validate_params(
        draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 1.0)),
        draw(st.sampled_from([1e-3, 0.2, 1.0, 3.0, 1e9])), draw(st.floats(1e-2, 10.0)),
    )
    root_t = math.sqrt(p.T)
    a = draw(st.one_of(
        st.just(indicator_threshold(p)),
        st.floats(-9.0, 9.0).map(lambda x: x * root_t),
        st.floats(-40.0, 40.0).map(lambda x: x * root_t),
        st.floats(-9.0, 9.0).map(lambda x: x * root_t - p.sigma * p.T),  # a + sigma T near 0
        st.sampled_from([-math.inf, math.inf]),
    ))
    edges = [e for e in front_edges(p, a) if 0.0 < e < 1.0] or [0.5]
    near = st.tuples(st.sampled_from(edges), st.integers(-64, 64)).map(
        lambda e: float((np.array([e[0]]).view(np.int64) + e[1]).view(np.float64)[0])
    )
    u = draw(st.lists(st.one_of(near, st.floats(0.0, 1.0)), min_size=1, max_size=40))
    return p, np.array([x for x in u if 0.0 < x < 1.0] or [0.5]), a


@settings(max_examples=300)
@given(front_cases())
def test_uniform_front_is_bitwise_the_kernel_near_the_band_edges(case):
    p, u, a = case
    assert all(same_reading(front, today) for front, today in front_readings(p, u, a))


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

    def test_nan_row_sum_takes_neither_leg(self):
        # A NaN b_T is neither <= a nor > a: the path reads 0.0, unclamped,
        # as the forward kernel reads b = NaN.
        inc = np.array([[np.nan, 1.0], [1.0, np.nan], [2.0, 1.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, clamped = forward_euler_values(SHOWCASE, inc)
            kernel = forward_insider_values(SHOWCASE, np.array([np.nan, np.nan]))
        assert values[:2].tobytes() == kernel.tobytes() == np.zeros(2).tobytes()
        assert values[2] > 0.0 and values[3] == SHOWCASE.M * math.exp(SHOWCASE.rho * SHOWCASE.T)
        assert not clamped.any()

    def test_weak_agreement_with_closed_form(self):
        from insidermc import Trader, expected_wealth
        from insidermc.montecarlo import estimate_euler_mean

        euler = estimate_euler_mean(SHOWCASE, 256, 100_000, seed=2024_08)
        reference = expected_wealth(Trader.FORWARD_INSIDER, SHOWCASE)
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
