import math

import numpy as np
import pytest

from insidermc import (
    Allocation,
    BadSampleCountError,
    DegenerateEstimateError,
    MCEstimate,
    RngStream,
    Trader,
    UnknownTraderError,
    WealthOverflowError,
    estimate_euler_mean,
    estimate_mean,
    forward_expected_wealth,
    honest_expected_wealth,
    merge_estimates,
    skorokhod_expected_wealth,
    skorokhod_factorized_estimate,
    validate_params,
    z_score,
)
import insidermc.montecarlo as montecarlo
from insidermc.montecarlo import CI95, GRANULE
from insidermc.samplers import forward_insider_values
from insidermc.sampling import brownian_terminal_block

SHOWCASE = validate_params(1, 0, 0.5, 1, 1)
BEAR = validate_params(1, 0.1, 0.05, 0.2, 2)


def test_sample_count_and_trader_validation():
    with pytest.raises(BadSampleCountError):
        estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 1, seed=1)
    with pytest.raises(UnknownTraderError):
        estimate_mean("martingale", SHOWCASE, 100, seed=1)
    with pytest.raises(BadSampleCountError):
        skorokhod_factorized_estimate(SHOWCASE, RngStream(1), 1)


def test_chunks_do_not_change_bits():
    for trader in (Trader.HONEST_OPTIMAL, Trader.SKOROKHOD_UNBIASED, Trader.FORWARD_INSIDER):
        reference = estimate_mean(trader, SHOWCASE, 100_000, seed=9, chunks=1)
        for chunks in (2, 8):
            assert estimate_mean(trader, SHOWCASE, 100_000, seed=9, chunks=chunks) == reference


def test_half_estimates_merge_bitwise():
    n = 16 * GRANULE
    full = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=5)
    left = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n // 2, seed=5, start=0)
    right = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n // 2, seed=5, start=n // 2)
    assert merge_estimates(left, right) == full


def test_single_granule_consumes_exact_index_range():
    n = GRANULE
    est = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=3)
    values = forward_insider_values(
        SHOWCASE, brownian_terminal_block(RngStream(3), 0, n, SHOWCASE.T)
    )
    assert est.mean == float(values.mean())


def test_estimate_invariants():
    est = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 50_000, seed=11)
    assert est.stderr * math.sqrt(est.n) == pytest.approx(est.sample_stddev, rel=1e-12)
    assert est.ci95_halfwidth / est.stderr == pytest.approx(CI95, rel=1e-9)
    assert est.n == 50_000
    assert est.seed == 11


def test_deterministic_honest_bond():
    est = estimate_mean(
        Trader.HONEST_FIXED, BEAR, 10_000, seed=1, allocation=Allocation(1, 0)
    )
    assert est.sample_stddev == 0.0
    assert est.mean == BEAR.M * math.exp(BEAR.rho * BEAR.T)
    # exact-match branch of the z-score
    assert z_score(est, honest_expected_wealth(BEAR, Allocation(1, 0))) == 0.0
    with pytest.raises(DegenerateEstimateError):
        z_score(est, est.mean + 1e-9)


def test_honest_fixed_requires_allocation():
    from insidermc import OutOfDomainError

    with pytest.raises(OutOfDomainError):
        estimate_mean(Trader.HONEST_FIXED, SHOWCASE, 100, seed=1)


def test_z_score_arithmetic():
    est = MCEstimate(
        n=100, mean=1.01, sample_stddev=0.05, stderr=0.005,
        ci95_halfwidth=CI95 * 0.005, seed=0, zero_fraction=0.0,
    )
    assert z_score(est, 1.00) == pytest.approx(2.0, rel=1e-9)
    assert z_score(est, est.mean) == 0.0


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
        (estimate_mean(Trader.HONEST_OPTIMAL, SHOWCASE, n, seed=31),
         honest_expected_wealth(SHOWCASE, Allocation(0, 1))),
        (estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, n, seed=32),
         skorokhod_expected_wealth(SHOWCASE)),
        (estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, n, seed=33),
         forward_expected_wealth(SHOWCASE)),
        (estimate_mean(Trader.FORWARD_INSIDER, BEAR, n, seed=34),
         forward_expected_wealth(BEAR)),
        (estimate_mean(Trader.SKOROKHOD_UNBIASED, BEAR, n, seed=35),
         skorokhod_expected_wealth(BEAR)),
    ]
    for est, reference in checks:
        assert abs(z_score(est, reference)) <= 3.5


def test_factorized_estimator_agrees_with_closed_form():
    est = skorokhod_factorized_estimate(SHOWCASE, RngStream(41), 200_000)
    assert abs(z_score(est, skorokhod_expected_wealth(SHOWCASE))) <= 3.5
    assert est.zero_fraction == 0.0
    assert est.stderr * math.sqrt(est.n) == pytest.approx(est.sample_stddev, rel=1e-12)


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


def test_euler_estimate_determinism_and_clamps():
    e1 = estimate_euler_mean(SHOWCASE, 16, 50_000, seed=51, chunks=1)
    e8 = estimate_euler_mean(SHOWCASE, 16, 50_000, seed=51, chunks=8)
    assert e1 == e8
    assert e1.n_steps == 16
    assert e1.clamp_count >= 0
    assert e1.estimate.zero_fraction == (e1.clamp_count / 50_000)


def test_factorized_overflowed_variance_raises():
    # Closed forms are finite here, but the GBM factor's variance overflows.
    p = validate_params(1, 0, 600, 3, 1)
    with pytest.raises(WealthOverflowError):
        skorokhod_factorized_estimate(p, RngStream(0), 8192)


def test_task_width_groups_granules_and_sums_tallies():
    spans = montecarlo._granule_spans(0, 3 * GRANULE)
    calls = []

    def make_values(offset, count):
        calls.append((offset, count))
        return np.full(count, 2.0), 1

    # One draw per sample: all three granules form one task.
    stats, tally = montecarlo._stats_over_blocks(make_values, spans, 1)
    assert calls == [(0, 3 * GRANULE)] and tally == 1 and len(stats) == 3
    # A sample as wide as a whole task target: one granule per task.
    calls.clear()
    wide = montecarlo._TASK_TARGET // GRANULE
    stats, tally = montecarlo._stats_over_blocks(make_values, spans, 1, wide)
    assert calls == [(0, GRANULE), (GRANULE, GRANULE), (2 * GRANULE, GRANULE)]
    assert tally == 3
    assert stats == [(GRANULE, 2.0, 0.0, 0)] * 3


def test_pool_capped_at_task_count(monkeypatch):
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    # 65536 draws are one generation task: chunks=8 must run it inline.
    inline = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 65536, seed=9, chunks=8)
    assert created == []
    assert inline == estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 65536, seed=9)
    assert montecarlo._run_tasks([lambda: 1, lambda: 2], 8) == [1, 2]
    assert len(created) == 1 and created[0] <= 2
