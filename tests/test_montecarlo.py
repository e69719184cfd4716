import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from insidermc import (
    BadSampleCountError,
    DegenerateEstimateError,
    IndexOverflowError,
    MCEstimate,
    NotFiniteError,
    OutOfDomainError,
    RngStream,
    Trader,
    UnknownTraderError,
    WealthOverflowError,
    estimate_euler_mean,
    estimate_mean,
    expected_wealth,
    indicator_threshold,
    normal_cdf,
    run_compare,
    skorokhod_factorized_estimate,
    validate_params,
    z_score,
)
import insidermc.montecarlo as montecarlo
import insidermc.samplers as samplers
import insidermc.sampling as sampling
from insidermc.montecarlo import GRANULE
from insidermc.samplers import forward_insider_values, honest_values, skorokhod_unbiased_values
from insidermc.sampling import Workspace, brownian_terminal_block

SHOWCASE = validate_params(1, 0, 0.5, 1, 1)
BEAR = validate_params(1, 0.1, 0.05, 0.2, 2)


def test_sample_count_and_trader_validation():
    with pytest.raises(BadSampleCountError):
        estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 1, seed=1)
    for tag in ("martingale", "honest-fixed"):
        with pytest.raises(UnknownTraderError):
            estimate_mean(tag, SHOWCASE, 100, seed=1)
    with pytest.raises(BadSampleCountError):
        skorokhod_factorized_estimate(SHOWCASE, RngStream(1), 1)
    # Counts must be integers, not merely integral floats.
    with pytest.raises(BadSampleCountError):
        estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 1e5, seed=1)
    with pytest.raises(BadSampleCountError):
        estimate_euler_mean(SHOWCASE, 4, 4096.0, seed=1)
    with pytest.raises(BadSampleCountError):
        skorokhod_factorized_estimate(SHOWCASE, RngStream(1), 4096.0)
    for chunks in (2.5, 2.0):
        with pytest.raises(OutOfDomainError):
            estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 4096, seed=1, chunks=chunks)
        with pytest.raises(OutOfDomainError):
            estimate_euler_mean(SHOWCASE, 4, 4096, seed=1, chunks=chunks)
    with pytest.raises(OutOfDomainError):
        skorokhod_factorized_estimate(SHOWCASE, RngStream(1), 4096, chunks=2.5)
    # The factorized estimate takes a stream, not a seed.
    with pytest.raises(OutOfDomainError):
        skorokhod_factorized_estimate(SHOWCASE, 5, 4096)
    # numpy integers are integers, and their counters do not wrap.
    with pytest.raises(IndexOverflowError):
        skorokhod_factorized_estimate(SHOWCASE, RngStream(1), np.int64(2**62 + 1))
    assert estimate_mean(
        Trader.FORWARD_INSIDER, SHOWCASE, np.int64(4096), seed=1, chunks=np.int64(2),
    ) == estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 4096, seed=1)


def test_chunks_do_not_change_bits():
    for trader in (Trader.HONEST_OPTIMAL, Trader.SKOROKHOD_UNBIASED, Trader.FORWARD_INSIDER):
        reference = estimate_mean(trader, SHOWCASE, 100_000, seed=9, chunks=1)
        for chunks in (2, 8):
            assert estimate_mean(trader, SHOWCASE, 100_000, seed=9, chunks=chunks) == reference


def test_single_granule_consumes_exact_index_range():
    n = GRANULE
    est = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=3)
    values = forward_insider_values(
        SHOWCASE, brownian_terminal_block(RngStream(3), 0, n, SHOWCASE.T)
    )
    assert est.mean == float(values.mean())


def test_estimate_invariants():
    est = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 50_000, seed=11)
    assert est.n == 50_000


def test_deterministic_honest_bond():
    # In BEAR the honest trader is all-in on the bond.
    est = estimate_mean(Trader.HONEST_OPTIMAL, BEAR, 10_000, seed=1)
    assert est.stderr == 0.0
    assert est.mean == BEAR.M * math.exp(BEAR.rho * BEAR.T)
    # exact-match branch of the z-score
    assert z_score(est, expected_wealth(Trader.HONEST_OPTIMAL, BEAR)) == 0.0
    with pytest.raises(DegenerateEstimateError):
        z_score(est, est.mean + 1e-9)


MARGINAL = validate_params(1, 0.07, 0.07, 0.2, 1)
# sigma^2/2 overflows, so the insider's level a is +inf; a = (rho - mu) T/sigma
# overflows to -inf at a subnormal sigma.
LEVEL_UP = validate_params(1, 0.1, 0.05, 1e200, 1)
LEVEL_DOWN = validate_params(1, 0, 0.5, 1e-309, 1)


def _estimate_of(values):
    """The estimate of a block of values: its granules merged and finalized."""
    stats = montecarlo._merge_tree(montecarlo._granule_stats(values))
    return montecarlo._finalize(stats, 0)


def _refuse(monkeypatch, module, *names):
    """Make each named generator, sampler or harness step of ``module`` raise."""
    def refused(*args, **kwargs):
        raise AssertionError(f"a refused call was made: {names}")

    for name in names:
        monkeypatch.setattr(module, name, refused)


@pytest.mark.parametrize(
    "trader,p",
    [(Trader.HONEST_OPTIMAL, BEAR), (Trader.HONEST_OPTIMAL, MARGINAL),
     (Trader.FORWARD_INSIDER, LEVEL_UP), (Trader.SKOROKHOD_UNBIASED, LEVEL_UP)],
    ids=["bear", "marginal", "forward-level-inf", "skorokhod-level-inf"],
)
def test_all_bond_honest_bet_generates_no_draws(monkeypatch, trader, p):
    # At a = +inf every value is M e^{rho T} whatever b is: the honest trader
    # off the bull regime, or an insider whose level overflows.  So the
    # estimate is the stats of a block of bonds, with nothing generated,
    # valued or statted.
    n = 3 * montecarlo._TASK_TARGET + 7  # four blocks
    bond = p.M * math.exp(p.rho * p.T)
    expected = _estimate_of(np.full(n, bond))
    _refuse(monkeypatch, montecarlo, "uniform_block", "brownian_terminal_block",
            "_stock_values", "_uniform_insider_values", "_stats_over_blocks", "_granule_stats")
    _refuse(monkeypatch, samplers, "honest_values", "_insider_values")
    for count, chunks in [(n, 1), (n, 2), (np.int64(n), 1)]:
        est = estimate_mean(trader, p, count, 4, chunks)
        assert est == expected
        assert est.mean.hex() == bond.hex() and est.stderr.hex() == (0.0).hex()
        assert est.zero_fraction == 0.0 and type(est.n) is int


@pytest.mark.parametrize("chunks", [1, 2])
def test_bull_honest_estimate_is_the_b_space_sampler(monkeypatch, recorded_pools, chunks):
    # At a = -inf the values are the stock leg alone, formed without the
    # uniform front and bitwise the b-space sampler on the same draws, at a
    # ragged n of several blocks: the honest bull trader, and an insider
    # whose level overflows.  At chunks=2 the slabs run inline, where the
    # refusals reach them.
    n = 2 * montecarlo._TASK_TARGET + GRANULE + 5
    for trader, p, sampler in [
        (Trader.HONEST_OPTIMAL, SHOWCASE, honest_values),
        (Trader.FORWARD_INSIDER, LEVEL_DOWN, forward_insider_values),
        (Trader.SKOROKHOD_UNBIASED, LEVEL_DOWN, skorokhod_unbiased_values),
    ]:
        b_t = brownian_terminal_block(RngStream(8), 0, n, p.T)
        expected = _estimate_of(sampler(p, b_t))
        with monkeypatch.context() as patch:
            _refuse(patch, montecarlo, "uniform_block", "_uniform_insider_values")
            assert estimate_mean(trader, p, n, 8, chunks) == expected
    assert recorded_pools == ([2] * 3 if chunks == 2 else [])


@pytest.mark.parametrize(
    "raw", [(1e308, 10, 0, 1, 1), (1e308, 10, 20, 1, 1)], ids=["bear", "bull"]
)
def test_honest_bond_overflow_raises_before_drawing(monkeypatch, raw):
    # M e^{rho T} is out of range.  The b-space sampler refuses such a point
    # in either regime, though no bull value reads the bond; so does the
    # estimate.
    _refuse(monkeypatch, montecarlo, "brownian_terminal_block")
    with pytest.raises(WealthOverflowError, match="bond leg"):
        estimate_mean(Trader.HONEST_OPTIMAL, validate_params(*raw), 4096, seed=1)


class _Drew(Exception):
    pass


# Each estimator with its draws per sample: honest at BEAR draws nothing, yet
# its counters are checked like the rest.
ESTIMATORS = {
    "honest-bear": (lambda n: estimate_mean(Trader.HONEST_OPTIMAL, BEAR, n, seed=1), 1),
    "skorokhod": (lambda n: estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, n, seed=1), 1),
    "forward": (lambda n: estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=1), 1),
    "euler-4": (lambda n: estimate_euler_mean(SHOWCASE, 4, n, seed=1), 4),
    "factorized": (lambda n: skorokhod_factorized_estimate(SHOWCASE, RngStream(1), n), 2),
}


@pytest.mark.parametrize(
    "n, outcome", [(2**61 + 1, IndexOverflowError), (2**61, _Drew)], ids=["n", "end"]
)
def test_euler_refuses_unreachable_counters_before_drawing(monkeypatch, n, outcome):
    # Path i reads counters 4i .. 4i + 3 at 4 steps, so n = 2**61 + 1 paths
    # end past 2**63 - 1 although their path indices do not.  At n = 2**61
    # the last counter is 2**63 - 1 itself: that range is drawn.
    def brownian_increments_block(*args, **kwargs):
        raise _Drew

    monkeypatch.setattr(montecarlo, "brownian_increments_block", brownian_increments_block)
    with pytest.raises(outcome):
        estimate_euler_mean(SHOWCASE, 4, n, seed=1, chunks=1)


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_estimators_refuse_unreachable_counters_before_drawing(monkeypatch, name):
    # n samples of `draws` counters end at counter n*draws - 1: n = 2**63 // draws
    # ends at 2**63 - 1 itself and is drawn; one sample more is refused before
    # any block is valued.
    def stats_over_blocks(*args, **kwargs):
        raise _Drew

    monkeypatch.setattr(montecarlo, "_stats_over_blocks", stats_over_blocks)
    estimate, draws = ESTIMATORS[name]
    if name == "honest-bear":
        # The all-bond estimate is exact without a draw, at the stream's end too.
        bond = BEAR.M * math.exp(BEAR.rho * BEAR.T)
        assert estimate(2**63) == MCEstimate(2**63, bond, 0.0, 0.0)
    else:
        with pytest.raises(_Drew):
            estimate(2**63 // draws)
    with pytest.raises(IndexOverflowError):
        estimate(2**63 // draws + 1)


class _CountingNormals:
    """The inverse CDF as sampling binds it, counting its draws."""

    def __init__(self):
        self._inverse, self.draws = sampling._inverse_normal_cdf_array, 0

    def __call__(self, u):
        self.draws += np.size(u)
        return self._inverse(u)


def test_insiders_take_normals_only_where_a_value_reads_them(monkeypatch):
    # Pr{B_T > a} = 1/2 and Pr{B_T > a + sigma T} = 0.16 at the showcase point.
    n = 1 << 18
    counter = _CountingNormals()
    monkeypatch.setattr(sampling, "_inverse_normal_cdf_array", counter)
    a, root_t = indicator_threshold(SHOWCASE), math.sqrt(SHOWCASE.T)
    for trader, level in [
        (Trader.FORWARD_INSIDER, a),
        (Trader.SKOROKHOD_UNBIASED, a + SHOWCASE.sigma * SHOWCASE.T),
    ]:
        counter.draws = 0
        estimate_mean(trader, SHOWCASE, n, seed=6)
        assert 0 < counter.draws <= (normal_cdf(-level / root_t) + 0.01) * n
    # The factorized GBM leg reads all of its n normals; the bet only those
    # in the guard band.
    counter.draws = 0
    skorokhod_factorized_estimate(SHOWCASE, RngStream(6), n)
    assert n <= counter.draws <= n + 0.01 * n
    # The honest trader reads none off the bull regime and every one in it.
    for p, normals in [(BEAR, 0), (MARGINAL, 0), (SHOWCASE, n)]:
        counter.draws = 0
        estimate_mean(Trader.HONEST_OPTIMAL, p, n, seed=6)
        assert counter.draws == normals


def test_z_score_arithmetic():
    est = MCEstimate(n=100, mean=1.01, stderr=0.005, zero_fraction=0.0, clamp_count=0)
    assert z_score(est, 1.00) == pytest.approx(2.0, rel=1e-9)
    assert z_score(est, est.mean) == 0.0


def test_estimate_record_fields():
    assert [f.name for f in dataclasses.fields(MCEstimate)] == [
        "n", "mean", "stderr", "zero_fraction", "clamp_count",
    ]


@pytest.mark.parametrize("mean, stderr", [
    (math.inf, 0.1), (-math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan),
])
def test_estimate_record_refuses_non_finite_statistics(mean, stderr):
    with pytest.raises(WealthOverflowError, match="estimate left the double range"):
        MCEstimate(n=100, mean=mean, stderr=stderr, zero_fraction=0.0)


def test_zero_fraction_diagnostics():
    honest = estimate_mean(Trader.HONEST_OPTIMAL, SHOWCASE, 50_000, seed=21)
    forward = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 50_000, seed=22)
    sk = estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, 50_000, seed=23)
    assert honest.zero_fraction == 0.0
    assert forward.zero_fraction == 0.0
    assert sk.zero_fraction > 0.25  # dead zone has mass ~0.34 here


def test_estimators_agree_with_closed_forms_smoke():
    n = 100_000
    checks = [
        (Trader.HONEST_OPTIMAL, SHOWCASE, 31),
        (Trader.SKOROKHOD_UNBIASED, SHOWCASE, 32),
        (Trader.FORWARD_INSIDER, SHOWCASE, 33),
        (Trader.FORWARD_INSIDER, BEAR, 34),
        (Trader.SKOROKHOD_UNBIASED, BEAR, 35),
    ]
    for trader, p, seed in checks:
        est = estimate_mean(trader, p, n, seed=seed)
        assert abs(z_score(est, expected_wealth(trader, p))) <= 3.5


def test_factorized_estimator_agrees_with_closed_form():
    est = skorokhod_factorized_estimate(SHOWCASE, RngStream(41), 200_000)
    assert abs(z_score(est, expected_wealth(Trader.SKOROKHOD_UNBIASED, SHOWCASE))) <= 3.5
    assert est.zero_fraction == 0.0


def test_factorized_estimators_vs_translation_sampler():
    est_f = skorokhod_factorized_estimate(SHOWCASE, RngStream(43), 100_000)
    est_t = estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, 100_000, seed=44)
    gap = abs(est_f.mean - est_t.mean)
    assert gap <= 3.0 * math.hypot(est_f.stderr, est_t.stderr)


def test_factorized_degenerate_all_stock():
    # a = (rho - mu + sigma^2/2) T / sigma = -9.975 < -8 sqrt(T): the bet
    # indicator is 1 on every draw and the estimate collapses to M * g_hat.
    p = validate_params(1, 0, 0.5, 0.05, 1)
    n = GRANULE
    est = skorokhod_factorized_estimate(p, RngStream(47), n)
    growth = (p.mu - 0.5 * p.sigma**2) * p.T
    g = np.exp(growth + p.sigma * brownian_terminal_block(RngStream(47), n, n, p.T))
    assert est.mean == p.M * float(g.mean())


# Recorded with the GBM leg on its own counter range n..2n-1, on the
# package's own inverse CDF, and the bet probability as the exact count K/n.
# n = 4096 + 17 leaves a short last granule in each leg; n = 2^16 + 4099
# spans two tasks.
FACTORIZED_FROZEN = [
    # (point, n, mean, stderr)
    (SHOWCASE, 4113, "0x1.50fd125d21918p+0", "0x1.21c56ab146ffbp-6"),
    (SHOWCASE, 69635, "0x1.546f114cc49efp+0", "0x1.19b5f6981d68ap-8"),
    (BEAR, 4113, "0x1.2f3e8e8590b74p+0", "0x1.cdc986ecb068dp-10"),
    (BEAR, 69635, "0x1.2f7e2cd75236ep+0", "0x1.c0f8376ff12d7p-12"),
]


@pytest.mark.parametrize("p, n, mean, stderr", FACTORIZED_FROZEN)
def test_factorized_reproduces_frozen_estimates(p, n, mean, stderr):
    est = skorokhod_factorized_estimate(p, RngStream(20240), n, chunks=1)
    assert est == skorokhod_factorized_estimate(p, RngStream(20240), n, chunks=2)
    assert (est.mean, est.stderr) == (float.fromhex(mean), float.fromhex(stderr))


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("p", [SHOWCASE, BEAR], ids=["showcase", "bear"])
def test_factorized_estimate_is_the_bet_count_and_the_gbm_leg_stats(p, chunks):
    # p_hat is the count K of bets on over n, correctly rounded; only the GBM
    # leg on counters n..2n-1 goes through the granule stats and the tree.
    n = 2**16 + 4099
    a = indicator_threshold(p)
    ones = int(np.count_nonzero(brownian_terminal_block(RngStream(20240), 0, n, p.T) > a))
    gbm = samplers._stock_values(p, 1.0, brownian_terminal_block(RngStream(20240), n, n, p.T))
    _, g_hat, m2_g, _ = montecarlo._merge_tree(montecarlo._granule_stats(gbm))
    p_hat = ones / n
    bond = samplers._bond_value(p, 1.0)
    gap = g_hat - bond
    var = p.M * p.M * (gap * gap * (p_hat * (1.0 - p_hat) / n)
                       + p_hat * p_hat * ((m2_g / (n - 1)) / n))
    est = skorokhod_factorized_estimate(p, RngStream(20240), n, chunks)
    assert (est.mean.hex(), est.stderr.hex()) == (
        (p.M * ((1.0 - p_hat) * bond + p_hat * g_hat)).hex(), math.sqrt(var).hex()
    )


def test_euler_estimate_determinism_and_clamps():
    e1 = estimate_euler_mean(SHOWCASE, 16, 50_000, seed=51, chunks=1)
    e8 = estimate_euler_mean(SHOWCASE, 16, 50_000, seed=51, chunks=8)
    assert e1 == e8
    assert e1.clamp_count >= 0
    assert e1.zero_fraction == (e1.clamp_count / 50_000)


# Recorded on the whole-granule Euler code and the package's own inverse
# CDF at sigma = 2 (a clamping point) and n = 4096 + 17, so the short last
# granule and sub-blocks that do not divide a granule (3, 48 and 1000
# steps) are both covered.
EULER_POINT = validate_params(1, 0, 0.5, 2, 1)
EULER_N = GRANULE + 17
EULER_FROZEN = [
    # (n_steps, mean, stderr, zero paths, clamp_count)
    (3, "0x1.233bc7d7e56ffp+1", "0x1.ada30aea14c82p-5", 41, 41),
    (48, "0x1.4b986a1a05f51p+1", "0x1.8f9cfe4276858p-3", 2, 2),
    (256, "0x1.34e850542eea0p+1", "0x1.36f355d440764p-3", 0, 0),
    (1000, "0x1.0604cd42a6265p+1", "0x1.fd19f9a50f12fp-4", 0, 0),
]


@pytest.mark.parametrize("n_steps, mean, stderr, zeros, clamps", EULER_FROZEN)
def test_euler_sub_blocks_reproduce_frozen_estimates(n_steps, mean, stderr, zeros, clamps):
    est = estimate_euler_mean(EULER_POINT, n_steps, EULER_N, seed=20240, chunks=1)
    assert est == estimate_euler_mean(EULER_POINT, n_steps, EULER_N, seed=20240, chunks=2)
    assert (est.mean, est.stderr) == (float.fromhex(mean), float.fromhex(stderr))
    assert (est.zero_fraction, est.clamp_count) == (zeros / EULER_N, clamps)


@pytest.mark.parametrize("n_steps", [3, 48, 256, 1000, montecarlo._TASK_TARGET + 1])
def test_euler_blocks_stay_within_task_target(monkeypatch, n_steps):
    asked = []
    real = montecarlo.brownian_increments_block

    def spy(stream, start, count, T, steps, out=None):
        asked.append(count * steps)
        return real(stream, start, count, T, steps, out=out)

    monkeypatch.setattr(montecarlo, "brownian_increments_block", spy)
    n = 2 if n_steps > montecarlo._TASK_TARGET else EULER_N
    estimate_euler_mean(EULER_POINT, n_steps, n, seed=3)
    assert sum(asked) == n * n_steps
    assert max(asked) <= max(montecarlo._TASK_TARGET, n_steps)


def test_factorized_overflowed_variance_raises():
    # Closed forms are finite here, but the GBM factor's variance overflows.
    p = validate_params(1, 0, 600, 3, 1)
    with pytest.raises(WealthOverflowError):
        skorokhod_factorized_estimate(p, RngStream(0), 8192)


@pytest.mark.parametrize("rho", [650.0, 700.0])
def test_factorized_certain_bet_has_zero_variance(rho):
    # p_hat = 0, so the delta-method variance is 0 although the square of
    # g_hat - e^{rho T} alone leaves the double range.
    p = validate_params(1, rho, 0.5, 1, 1)
    est = skorokhod_factorized_estimate(p, RngStream(3), 8192)
    assert est.stderr == 0.0
    assert est.mean == expected_wealth(Trader.SKOROKHOD_UNBIASED, p)
    assert z_score(est, expected_wealth(Trader.SKOROKHOD_UNBIASED, p)) == 0.0


def test_factorized_infinite_mean_still_raises():
    # M e^{rho T} itself overflows: the mean really is out of range.
    with pytest.raises(WealthOverflowError, match="mean inf"):
        skorokhod_factorized_estimate(validate_params(1e5, 700, 0.5, 1, 1), RngStream(3), 8192)


def test_factorized_bond_overflow_raises_before_drawing(monkeypatch):
    # e^{rho T} is out of range: the bond factor fails before either leg draws.
    drawn = []
    stats_over_blocks = montecarlo._stats_over_blocks

    def spy(*args, **kwargs):
        drawn.append(args)
        return stats_over_blocks(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_stats_over_blocks", spy)
    with pytest.raises(WealthOverflowError, match="rho"):
        skorokhod_factorized_estimate(validate_params(1, 800, 0, 1, 1), RngStream(1), 4096)
    assert drawn == []


def test_factorized_stock_exponent_overflow_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WealthOverflowError, match="stock exponent"):
            skorokhod_factorized_estimate(
                validate_params(1, 0, 800, 1, 1), RngStream(1), 4096
            )


def test_honest_stock_amount_overflow_raises_without_warning():
    # The exponent sigma b + (mu - sigma^2/2) T stays in range, but
    # M e^{exponent} does not.
    p = validate_params(1e308, 0, 1, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WealthOverflowError, match="stock leg"):
            estimate_mean(Trader.HONEST_OPTIMAL, p, 4096, seed=1)


# A point whose stock-leg granule sums leave the double range at n = 4096.
SUM_OVERFLOW = validate_params(6.559407502634227e155, 5.3207715106409324e-05,
                               5.3207715106409324e-05, 0.534929234536244, 5.939181763406193)


def test_overflowed_granule_sums_raise_without_warning():
    # A granule sum past the double range is inf, and the estimate refuses
    # it.  Only the square of the deviations may still warn (ROADMAP item 8).
    alternating = np.tile([1.0e305, 1.1e305], GRANULE // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "overflow encountered in square", RuntimeWarning)
        with pytest.raises(WealthOverflowError, match="stderr inf"):
            run_compare(SUM_OVERFLOW, 4096, 1)
        stats = montecarlo._merge_tree(montecarlo._granule_stats(alternating))
        with pytest.raises(WealthOverflowError, match="mean inf"):
            montecarlo._finalize(stats, 0)


def _hex_estimate(est):
    return (est.n, est.mean.hex(), est.stderr.hex(), est.zero_fraction.hex(), est.clamp_count)


def test_sigma_past_the_double_range_estimates_as_sigma_1e200():
    # sigma^2 T/2 overflows at both, so every stock value is +0.0, although
    # at sigma = 1e308 sigma b overflows too.  Nothing warns.
    found = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma in (1e308, 1e200):
            p = validate_params(1, 0, 0.5, sigma, 1)
            found.append([
                _hex_estimate(estimate_mean(Trader.HONEST_OPTIMAL, p, 8192, 1)),
                _hex_estimate(skorokhod_factorized_estimate(p, RngStream(1), 8192)),
            ])
    assert found[0] == found[1]
    assert found[0][1][1:3] == ((1.0).hex(), (0.0).hex())


def test_task_width_groups_granules_and_sums_tallies(monkeypatch):
    calls, granules = [], []
    real = montecarlo._granule_stats

    def granule_stats(values):
        granules.append(real(values))
        return granules[-1]

    monkeypatch.setattr(montecarlo, "_granule_stats", granule_stats)

    def make_values(offset, count, workspace):
        calls.append((offset, count))
        return np.full(count, 2.0), 1

    def run(n, width=1):
        calls.clear()
        granules.clear()
        return montecarlo._stats_over_blocks(make_values, n, 1, width)

    # One draw per sample: all three granules form one task.
    stats, tally = run(3 * GRANULE)
    assert calls == [(0, 3 * GRANULE)] and tally == 1
    assert granules == [[(GRANULE, 2.0, 0.0, 0)] * 3]
    assert stats == (3 * GRANULE, 2.0, 0.0, 0)
    # A sample as wide as a whole task target: one granule per task.
    wide = montecarlo._TASK_TARGET // GRANULE
    stats, tally = run(3 * GRANULE, wide)
    assert calls == [(0, GRANULE), (GRANULE, GRANULE), (2 * GRANULE, GRANULE)]
    assert tally == 3
    assert granules == [[(GRANULE, 2.0, 0.0, 0)]] * 3
    assert stats == (3 * GRANULE, 2.0, 0.0, 0)
    # A range that ends off the granule grid keeps a short last granule.
    stats, tally = run(GRANULE + 3, wide)
    assert calls == [(0, GRANULE), (GRANULE, 3)] and tally == 2
    assert [[s[0] for s in task] for task in granules] == [[GRANULE], [3]]
    assert stats == (GRANULE + 3, 2.0, 0.0, 0)
    # Four blocks per granule: still one stat per granule, every tally summed.
    stats, tally = run(3 * GRANULE, 4 * wide)
    quarter = GRANULE // 4
    assert calls == [(i * quarter, quarter) for i in range(12)] and tally == 12
    assert granules == [[(GRANULE, 2.0, 0.0, 0)]] * 3
    assert stats == (3 * GRANULE, 2.0, 0.0, 0)
    # 1365-sample blocks do not divide a granule: each granule ends in a 1-sample block.
    stats, tally = run(2 * GRANULE, 48)
    block = montecarlo._TASK_TARGET // 48
    assert calls == [
        (g + i * block, block if i < 3 else 1) for g in (0, GRANULE) for i in range(4)
    ]
    assert tally == 8
    assert granules == [[(GRANULE, 2.0, 0.0, 0)]] * 2
    assert stats == (2 * GRANULE, 2.0, 0.0, 0)


def reference_granule_stats(values):
    """The per-granule formula, five numpy calls per granule."""
    stats = []
    for i in range(0, len(values), GRANULE):
        g = values[i : i + GRANULE]
        zeros = int(np.count_nonzero(g == 0.0))
        vmin, vmax = float(g.min()), float(g.max())
        if vmin == vmax:
            stats.append((g.size, vmin, 0.0, zeros))
            continue
        mean = float(g.mean())
        stats.append((g.size, mean, float(np.sum(np.square(g - mean))), zeros))
    return stats


def _hex_stats(stats):
    return [(n, mean.hex(), m2.hex(), zeros) for n, mean, m2, zeros in stats]


def _constant_granules(rng, size):
    # Even-numbered granules hold one value each; at 4095 draws that is one
    # constant granule of a length whose pairwise sum can round.
    values = rng.standard_normal(size)
    for i in range(0, size, 2 * GRANULE):
        values[i : i + GRANULE] = values[i] / 3.0
    return values


BLOCK_SIZES = [1, 4095, 4096, 4097, 3 * 4096 + 17, 2**16]
BLOCK_KINDS = {
    "normal": lambda rng, size: rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8),
    "constant": _constant_granules,
    "zeros": lambda rng, size: np.where(rng.random(size) < 0.4, 0.0, rng.lognormal(0, 2, size)),
    "overflow": lambda rng, size: rng.standard_normal(size) * 1e200,
}


@pytest.mark.parametrize("kind", BLOCK_KINDS)
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_block_stats_are_bitwise_the_per_granule_formula(kind, size):
    rng = np.random.default_rng([size, len(kind)])
    for _ in range(3):
        values = BLOCK_KINDS[kind](rng, size)
        with np.errstate(over="ignore"):
            expected = reference_granule_stats(values)
            assert _hex_stats(montecarlo._granule_stats(values)) == _hex_stats(expected)


def test_short_granules_are_bitwise_the_per_granule_formula():
    # A short granule divides by a count that is not a power of two, so
    # only the same division gives the same mean.
    rng = np.random.default_rng(2026)
    for size in rng.integers(1, 2 * GRANULE, 300):
        values = rng.standard_normal(size) * 1e3
        expected = reference_granule_stats(values)
        assert _hex_stats(montecarlo._granule_stats(values)) == _hex_stats(expected)


def test_one_stats_call_per_task(monkeypatch):
    calls = []
    real = montecarlo._granule_stats

    def counted(values):
        calls.append(values.size)
        return real(values)

    monkeypatch.setattr(montecarlo, "_granule_stats", counted)
    n = 3 * 2**16 + 5
    estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=5, chunks=1)
    assert calls == [2**16] * 3 + [5]
    calls.clear()
    # 256 steps: a task is one granule, generated in 16 sub-blocks.
    estimate_euler_mean(EULER_POINT, 256, 2 * GRANULE + 3, seed=5)
    assert calls == [GRANULE, GRANULE, 3]


def _record_workspaces(monkeypatch, name):
    seen = []
    real = getattr(montecarlo, name)

    def spy(*args, out=None):
        seen.append(out)
        return real(*args, out=out)

    monkeypatch.setattr(montecarlo, name, spy)
    return seen


@pytest.mark.parametrize("width", [1, 3, 256])
def test_one_workspace_serves_every_block_of_a_call(monkeypatch, width):
    if width == 1:
        seen = _record_workspaces(monkeypatch, "brownian_terminal_block")
        def run(n):
            return estimate_mean(Trader.HONEST_OPTIMAL, SHOWCASE, n, seed=4)
    else:
        seen = _record_workspaces(monkeypatch, "brownian_increments_block")
        def run(n):
            return estimate_euler_mean(EULER_POINT, width, n, seed=4)
    run(3 * montecarlo._TASK_TARGET // width + 7)  # four blocks
    assert len(seen) == 4
    workspace = seen[0]
    assert isinstance(workspace, Workspace)
    assert all(out is workspace for out in seen)
    assert workspace.words.size == max(montecarlo._TASK_TARGET, width)
    # The next call makes its own.
    seen.clear()
    run(GRANULE)
    assert seen[0] is not workspace


def test_each_slab_generates_in_one_workspace_of_its_own(monkeypatch, recorded_pools):
    # 2 * 10^6 draws make 31 tasks of one 2^16-draw block each, the last one
    # short; eight workers take contiguous slabs of 3 or 4 of them.
    n = 2 * 10**6
    assert -(-n // montecarlo._TASK_TARGET) == 31
    serial = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=4)
    seen = _record_workspaces(monkeypatch, "uniform_block")  # the insiders bet on uniforms
    assert estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=4, chunks=8) == serial
    assert recorded_pools == [8] and len(seen) == 31
    # seen holds every workspace, so no two of them can share an id.
    runs = [len(list(blocks)) for _, blocks in itertools.groupby(map(id, seen))]
    assert runs == [3, 4, 4, 4, 4, 4, 4, 4]
    assert len(set(map(id, seen))) == 8
    assert all(out.words.size == montecarlo._TASK_TARGET for out in seen)


def test_pool_capped_at_task_count(recorded_pools):
    # 65536 draws are one generation task: chunks=8 must run it inline.
    inline = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 65536, seed=9, chunks=8)
    assert recorded_pools == []
    assert inline == estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 65536, seed=9)
    # Two tasks make two one-task slabs, however many workers are asked for.
    assert montecarlo._run_tasks(list, range(2), 8) == [[0], [1]]
    assert recorded_pools == [2]


def test_slabs_are_contiguous_ranges_of_the_offsets(recorded_pools):
    # A slab is a slice of the offsets' range, never a list of them: the
    # counter range of a long estimate holds up to 2^51 tasks.
    slabs = montecarlo._run_tasks(lambda slab: slab, range(0, 7 * GRANULE, GRANULE), 3)
    assert all(type(slab) is range for slab in slabs)
    assert [list(slab) for slab in slabs] == [
        [0, GRANULE], [2 * GRANULE, 3 * GRANULE], [4 * GRANULE, 5 * GRANULE, 6 * GRANULE]
    ]
    assert montecarlo._run_tasks(len, range(2**62), 2) == [2**61, 2**61]


def test_two_workers_share_a_million_draws(recorded_pools):
    # n = 10^6 spans several generation tasks, so chunks=2 gives 2 workers work.
    serial = estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, 10**6, seed=9)
    assert recorded_pools == []
    assert estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, 10**6, seed=9, chunks=2) == serial
    assert recorded_pools == [2]


def _in_process(run_slab, slab):
    """A slab's result with the id of the process that ran it."""
    return os.getpid(), run_slab(slab)


@pytest.fixture
def slab_pids(monkeypatch):
    """The id of the process that ran each pooled slab.  The slabs run in
    the package's own pool, whose map this only wraps, with 2 cores."""
    pids = []
    pool = montecarlo._pool

    class Probe:
        def __init__(self, workers):
            self.pool = pool(workers)

        def map(self, run_slab, slabs):
            for pid, result in self.pool.map(partial(_in_process, run_slab), slabs):
                pids.append(pid)
                yield result

    monkeypatch.setattr(montecarlo, "_pool", Probe)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    return pids


# Each kind of pooled task, at two or more tasks per estimate: the uniform
# front, the stock leg, the Euler level, and the factorized bet counted
# beside its GBM leg.  Each estimate is one harness pass.
POOLED_KINDS = {
    "front": lambda chunks: estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 1 << 18, 11, chunks),
    "stock-leg": lambda chunks: estimate_mean(Trader.HONEST_OPTIMAL, SHOWCASE, 1 << 18, 11, chunks),
    "euler": lambda chunks: estimate_euler_mean(SHOWCASE, 16, 1 << 14, 11, chunks),
    "factorized": lambda chunks: skorokhod_factorized_estimate(SHOWCASE, RngStream(11), 1 << 18, chunks),
}


@pytest.mark.parametrize("kind", POOLED_KINDS)
def test_pooled_slabs_run_in_other_processes(slab_pids, kind):
    estimate = POOLED_KINDS[kind]
    serial = estimate(1)
    assert slab_pids == []
    assert estimate(2) == serial
    assert len(slab_pids) == 2 and os.getpid() not in slab_pids


@pytest.mark.parametrize("kind", POOLED_KINDS)
def test_every_block_statted_is_float64(monkeypatch, kind):
    dtypes = []
    real = montecarlo._granule_stats

    def granule_stats(values):
        dtypes.append(values.dtype)
        return real(values)

    monkeypatch.setattr(montecarlo, "_granule_stats", granule_stats)
    POOLED_KINDS[kind](1)
    assert len(dtypes) >= 2 and set(dtypes) == {np.dtype(np.float64)}


def _not_finite_past(limit, offset, count, workspace):
    if offset >= limit:
        raise NotFiniteError("T", math.nan)
    return np.ones(count), 0


def test_an_error_in_a_pooled_task_reaches_the_caller_as_itself(slab_pids):
    n = 4 * montecarlo._TASK_TARGET
    with pytest.raises(NotFiniteError) as raised:
        montecarlo._stats_over_blocks(partial(_not_finite_past, n // 2), n, 2)
    error = raised.value
    assert (str(error), error.field) == ("T must be finite, got nan", "T")
    assert math.isnan(error.value)
    # concurrent.futures chains the worker's traceback to an error it pickled.
    assert type(error.__cause__).__name__ == "_RemoteTraceback"
    with pytest.raises(WealthOverflowError, match="stock leg of 1e[+]308") as raised:
        estimate_mean(Trader.HONEST_OPTIMAL, validate_params(1e308, 0, 1, 1, 1), n, 1, 2)
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
    assert slab_pids == [slab_pids[0]]  # the first slab; the second raised


SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}
# Runs a pooled estimate, then one with more workers than the pool has, and
# prints what it saw.  With "spawn", an idle helper thread is running when
# the pool starts.
POOL_CHILD = """
import json, multiprocessing, os, sys, threading
from insidermc import Trader, estimate_mean, validate_params
if sys.argv[1] == "spawn":
    threading.Thread(target=threading.Event().wait, daemon=True).start()
p = validate_params(1, 0, 0.5, 1, 1)
seen = {"same": []}
for cores in (2, 3):
    os.cpu_count = lambda: cores
    pair = [estimate_mean(Trader.FORWARD_INSIDER, p, 1 << 20, 7, chunks) for chunks in (1, cores)]
    seen["same"].append(pair[0] == pair[1])
    children = multiprocessing.active_children()
    seen[cores] = sorted(c.pid for c in children)
    seen["kinds"] = sorted({type(c).__name__ for c in children})
print(json.dumps(seen))
"""


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_pool_processes_end_with_the_interpreter(start):
    proc = subprocess.run(
        [sys.executable, "-c", POOL_CHILD, start],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    seen = json.loads(proc.stdout)
    assert seen["same"] == [True, True]
    assert seen["kinds"] == [{"fork": "ForkProcess", "spawn": "SpawnProcess"}[start]]
    # Three workers replaced the pool of two.
    assert len(seen["2"]) == 2 and len(seen["3"]) == 3
    assert not set(seen["2"]) & set(seen["3"])
    pids = seen["2"] + seen["3"]
    deadline = time.monotonic() + 10.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if _running(pid)] == []


# Kills a worker of a pool that has served a call: the next pooled call
# fails with the pool, and the one after runs on a new pool.
LOST_WORKER_CHILD = """
import multiprocessing, os, signal, time
from concurrent.futures.process import BrokenProcessPool
from insidermc import Trader, estimate_mean, validate_params
os.cpu_count = lambda: 2
args = (Trader.FORWARD_INSIDER, validate_params(1, 0, 0.5, 1, 1), 1 << 18, 3)
serial = estimate_mean(*args, 1)
print(estimate_mean(*args, 2) == serial)
first = sorted(c.pid for c in multiprocessing.active_children())
os.kill(first[0], signal.SIGKILL)
time.sleep(0.2)
try:
    estimate_mean(*args, 2)
except BrokenProcessPool:
    print("broken")
print(estimate_mean(*args, 2) == serial)
print(not set(first) & {c.pid for c in multiprocessing.active_children()})
"""


def test_a_lost_worker_fails_one_call_and_the_next_starts_a_new_pool():
    proc = subprocess.run(
        [sys.executable, "-c", LOST_WORKER_CHILD],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "broken", "True", "True"]
