import math
import sys
import threading
import warnings

import numpy as np
import pytest

from insidermc import (
    BadSampleCountError,
    DegenerateEstimateError,
    IndexOverflowError,
    MCEstimate,
    OutOfDomainError,
    RngStream,
    Trader,
    UnknownTraderError,
    WealthOverflowError,
    estimate_euler_mean,
    estimate_mean,
    forward_expected_wealth,
    honest_expected_wealth,
    indicator_threshold,
    normal_cdf,
    skorokhod_expected_wealth,
    skorokhod_factorized_estimate,
    validate_params,
    z_score,
)
import insidermc.montecarlo as montecarlo
import insidermc.special as special
from insidermc.montecarlo import GRANULE
from insidermc.samplers import forward_insider_values
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
    # numpy integers are integers.
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
    assert est.stderr * math.sqrt(est.n) == pytest.approx(est.sample_stddev, rel=1e-12)
    assert est.n == 50_000
    assert est.seed == 11


def test_deterministic_honest_bond():
    # In BEAR the honest trader is all-in on the bond.
    est = estimate_mean(Trader.HONEST_OPTIMAL, BEAR, 10_000, seed=1)
    assert est.sample_stddev == 0.0
    assert est.mean == BEAR.M * math.exp(BEAR.rho * BEAR.T)
    # exact-match branch of the z-score
    assert z_score(est, honest_expected_wealth(BEAR)) == 0.0
    with pytest.raises(DegenerateEstimateError):
        z_score(est, est.mean + 1e-9)


@pytest.mark.parametrize(
    "p", [BEAR, validate_params(1, 0.07, 0.07, 0.2, 1)], ids=["bear", "marginal"]
)
def test_all_bond_honest_bet_generates_no_draws(monkeypatch, p):
    # Off the bull regime every honest value is M e^{rho T} whatever b is.
    n = 3 * montecarlo._TASK_TARGET + 7  # four blocks
    drawn = _record_workspaces(monkeypatch, "brownian_terminal_block")
    valued = []
    real_honest_values = montecarlo.honest_values

    def honest_values(*args):
        valued.append(args)
        return real_honest_values(*args)

    monkeypatch.setattr(montecarlo, "honest_values", honest_values)
    one, two = (estimate_mean(Trader.HONEST_OPTIMAL, p, n, 4, chunks) for chunks in (1, 2))
    assert drawn == []
    assert len(valued) == 8  # the values still come from the sampler, per block
    # The estimate is the bits the draws gave.
    monkeypatch.setattr(montecarlo, "honest_threshold", lambda p: -math.inf)
    assert one == two == estimate_mean(Trader.HONEST_OPTIMAL, p, n, 4)
    assert len(drawn) == 4


class _Drew(Exception):
    pass


def test_no_draw_estimate_still_checks_its_index_range(monkeypatch):
    # The all-bond honest bet reads no draw, but index 2**63 is still past
    # the stream's last counter; it is refused before any block is valued.
    def stats_over_blocks(*args, **kwargs):
        raise _Drew

    monkeypatch.setattr(montecarlo, "_stats_over_blocks", stats_over_blocks)
    with pytest.raises(IndexOverflowError):
        estimate_mean(Trader.HONEST_OPTIMAL, BEAR, 2**63 + 1, seed=1)


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


def test_factorized_refuses_unreachable_counters_before_drawing(monkeypatch):
    # The GBM leg reads counters n .. 2n - 1, past 2**63 - 1 at n = 2**62 + 1
    # although the indicator leg's do not.
    def drew(*args, **kwargs):
        raise _Drew

    for name in ("uniform_block", "brownian_terminal_block"):
        monkeypatch.setattr(montecarlo, name, drew)
    with pytest.raises(IndexOverflowError):
        skorokhod_factorized_estimate(SHOWCASE, RngStream(1), 2**62 + 1)
    # At n = 2**62 the last counter is 2**63 - 1 itself: that range is drawn.
    with pytest.raises(_Drew):
        skorokhod_factorized_estimate(SHOWCASE, RngStream(1), 2**62)


class _CountingScipy:
    """scipy.special as the special module sees it, counting ndtri's draws."""

    def __init__(self, real):
        self._real, self.draws = real, 0

    def __getattr__(self, name):
        return getattr(self._real, name)

    def ndtri(self, u, out=None):
        self.draws += np.size(u)
        return self._real.ndtri(u, out=out)


def test_insiders_take_normals_only_where_a_value_reads_them(monkeypatch):
    # Pr{B_T > a} = 1/2 and Pr{B_T > a + sigma T} = 0.16 at the showcase point.
    n = 1 << 18
    counter = _CountingScipy(special._sc)
    monkeypatch.setattr(special, "_sc", counter)
    a, root_t = indicator_threshold(SHOWCASE), math.sqrt(SHOWCASE.T)
    for trader, level in [
        (Trader.FORWARD_INSIDER, a),
        (Trader.SKOROKHOD_UNBIASED, a + SHOWCASE.sigma * SHOWCASE.T),
    ]:
        counter.draws = 0
        estimate_mean(trader, SHOWCASE, n, seed=6)
        assert 0 < counter.draws <= (normal_cdf(-level / root_t) + 0.01) * n
    # The factorized GBM leg reads all of its n normals; the indicator leg
    # only those in the guard band.
    counter.draws = 0
    skorokhod_factorized_estimate(SHOWCASE, RngStream(6), n)
    assert n <= counter.draws <= n + 0.01 * n


def test_z_score_arithmetic():
    est = MCEstimate(
        n=100, mean=1.01, sample_stddev=0.05, stderr=0.005, seed=0, zero_fraction=0.0,
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
         honest_expected_wealth(SHOWCASE)),
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
    assert e1.clamp_count >= 0
    assert e1.zero_fraction == (e1.clamp_count / 50_000)


# Recorded on the whole-granule Euler code at sigma = 2 (a clamping point)
# and n = 4096 + 17, so the short last granule and sub-blocks that do not
# divide a granule (3, 48 and 1000 steps) are both covered.
EULER_POINT = validate_params(1, 0, 0.5, 2, 1)
EULER_N = GRANULE + 17
EULER_FROZEN = [
    # (n_steps, mean, M2, zero paths, clamp_count)
    (3, "0x1.233bc7d7e56ffp+1", "0x1.6b6f007d42ef1p+15", 41, 41),
    (48, "0x1.4b986a1a05f52p+1", "0x1.3a69f4e79ccd9p+19", 2, 2),
    (256, "0x1.34e850542eea1p+1", "0x1.7cbecc117f8a0p+18", 0, 0),
    (1000, "0x1.0604cd42a6265p+1", "0x1.fe4e5459fae56p+17", 0, 0),
]


@pytest.mark.parametrize("n_steps, mean, m2, zeros, clamps", EULER_FROZEN)
def test_euler_sub_blocks_reproduce_frozen_estimates(n_steps, mean, m2, zeros, clamps):
    est = estimate_euler_mean(EULER_POINT, n_steps, EULER_N, seed=20240, chunks=1)
    assert est == estimate_euler_mean(EULER_POINT, n_steps, EULER_N, seed=20240, chunks=2)
    assert (est.mean, est.m2) == (float.fromhex(mean), float.fromhex(m2))
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
    assert est.mean == skorokhod_expected_wealth(p)
    assert z_score(est, skorokhod_expected_wealth(p)) == 0.0


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


def test_task_width_groups_granules_and_sums_tallies():
    calls = []

    def make_values(offset, count, workspace):
        calls.append((offset, count))
        return np.full(count, 2.0), 1

    # One draw per sample: all three granules form one task.
    stats, tally = montecarlo._stats_over_blocks(make_values, 0, 3 * GRANULE, 1)
    assert calls == [(0, 3 * GRANULE)] and tally == 1 and len(stats) == 3
    # A sample as wide as a whole task target: one granule per task.
    calls.clear()
    wide = montecarlo._TASK_TARGET // GRANULE
    stats, tally = montecarlo._stats_over_blocks(make_values, 0, 3 * GRANULE, 1, wide)
    assert calls == [(0, GRANULE), (GRANULE, GRANULE), (2 * GRANULE, GRANULE)]
    assert tally == 3
    assert stats == [(GRANULE, 2.0, 0.0, 0)] * 3
    # A range that starts and ends off the granule grid keeps a short last granule.
    calls.clear()
    stats, tally = montecarlo._stats_over_blocks(make_values, 5, GRANULE + 3, 1, wide)
    assert calls == [(5, GRANULE), (5 + GRANULE, 3)] and tally == 2
    assert [s[0] for s in stats] == [GRANULE, 3]
    # Four blocks per granule: still one stat per granule, every tally summed.
    calls.clear()
    stats, tally = montecarlo._stats_over_blocks(make_values, 0, 3 * GRANULE, 1, 4 * wide)
    quarter = GRANULE // 4
    assert calls == [(i * quarter, quarter) for i in range(12)] and tally == 12
    assert stats == [(GRANULE, 2.0, 0.0, 0)] * 3
    # 1365-sample blocks do not divide a granule: each granule ends in a 1-sample block.
    calls.clear()
    stats, tally = montecarlo._stats_over_blocks(make_values, 0, 2 * GRANULE, 1, 48)
    block = montecarlo._TASK_TARGET // 48
    assert calls == [
        (g + i * block, block if i < 3 else 1) for g in (0, GRANULE) for i in range(4)
    ]
    assert tally == 8
    assert stats == [(GRANULE, 2.0, 0.0, 0)] * 2


def _record_workspaces(monkeypatch, name):
    seen = []
    real = getattr(montecarlo, name)

    def spy(*args, out=None):
        seen.append((threading.get_ident(), out))
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
    workspace = seen[0][1]
    assert isinstance(workspace, Workspace)
    assert all(out is workspace for _, out in seen)
    assert workspace.words.size == max(montecarlo._TASK_TARGET, width)
    # The next call makes its own.
    seen.clear()
    run(GRANULE)
    assert seen[0][1] is not workspace


def test_workspaces_are_never_shared_between_threads(monkeypatch):
    serial = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 10**6, seed=4)
    seen = _record_workspaces(monkeypatch, "uniform_block")  # the insiders bet on uniforms
    # More workers than cores, switching threads as often as the interpreter can.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 10**6, seed=4, chunks=8)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial
    owner = {}
    for thread, out in seen:
        assert owner.setdefault(id(out), thread) == thread
    assert len(owner) <= 8 and len(seen) == 16


@pytest.fixture
def recorded_pools(monkeypatch):
    """Swap the thread pool for one that records max_workers and maps inline."""
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
    return created


def test_pool_capped_at_task_count(recorded_pools):
    # 65536 draws are one generation task: chunks=8 must run it inline.
    inline = estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 65536, seed=9, chunks=8)
    assert recorded_pools == []
    assert inline == estimate_mean(Trader.FORWARD_INSIDER, SHOWCASE, 65536, seed=9)
    assert montecarlo._run_tasks(lambda offset: offset, [1, 2], 8) == [1, 2]
    assert len(recorded_pools) == 1 and recorded_pools[0] <= 2


def test_two_workers_share_a_million_draws(recorded_pools):
    # n = 10^6 spans several generation tasks, so chunks=2 gives 2 workers work.
    serial = estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, 10**6, seed=9)
    assert recorded_pools == []
    assert estimate_mean(Trader.SKOROKHOD_UNBIASED, SHOWCASE, 10**6, seed=9, chunks=2) == serial
    assert recorded_pools == [2]
