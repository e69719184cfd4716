import csv
import io
import json
import math

import numpy as np
import pytest

from insidermc import (
    DegenerateEstimateError,
    NonPositiveError,
    OutOfDomainError,
    Trader,
    derive_seed,
    estimate_mean,
    run_compare,
    run_convergence,
    run_sweep,
    validate_params,
)
import insidermc.report as report
from insidermc.report import (
    COMPARISON_COLUMNS,
    comparison_csv,
    comparison_json,
    convergence_csv,
    convergence_json,
)

BASE = validate_params(1, 0.05, 0.1, 0.2, 1)
N = 20_000


@pytest.fixture(scope="module")
def row():
    return run_compare(BASE, N, seed=7)


def test_compare_row_contents(row):
    assert row.regime == "bull"
    assert row.ordering_pass
    assert abs(row.z_honest) <= 4 and abs(row.z_sk) <= 4 and abs(row.z_rs) <= 4
    assert row.zero_fraction >= 0.0
    assert row.error is None


@pytest.mark.xfail(
    strict=True,
    reason="the translation sampler's stock branch needs b > a + sigma T, a "
    "6.1-sigma event never drawn at 1e5, so the sample SE covers the bond "
    "leg alone and z_sk reads about -150; an exact-second-moment SE passes",
)
def test_rare_stock_branch_gets_an_honest_standard_error():
    row = run_compare(validate_params(1, 0, 0.5, 3, 2), 10**5, 42)
    assert abs(row.z_sk) <= 6


def test_compare_runs_traders_on_consecutive_child_ordinals():
    # Honest, Skorokhod, forward on child ordinals first, first+1, first+2:
    # the verify battery's grid rows and its render digest rest on this.
    n, seed = 4096, 11
    traders = (Trader.HONEST_OPTIMAL, Trader.SKOROKHOD_UNBIASED, Trader.FORWARD_INSIDER)
    for first in (0, 5):
        row = run_compare(BASE, n, seed, 1, first)
        honest, sk, rs = (
            estimate_mean(trader, BASE, n, derive_seed(seed, first + k))
            for k, trader in enumerate(traders)
        )
        assert (row.mc_honest, row.mc_honest_se) == (honest.mean, honest.stderr)
        assert (row.mc_sk, row.mc_sk_se) == (sk.mean, sk.stderr)
        assert (row.mc_rs, row.mc_rs_se) == (rs.mean, rs.stderr)
        assert row.zero_fraction == sk.zero_fraction
        assert row.z_sk == (sk.mean - row.cf_skorokhod) / sk.stderr
    assert run_compare(BASE, n, seed) == run_compare(BASE, n, seed, first=0)
    assert run_compare(BASE, n, seed, first=5).mc_honest != run_compare(BASE, n, seed).mc_honest
    # Ordinals are counters of the master stream: one before the first is refused.
    with pytest.raises(OutOfDomainError):
        run_compare(BASE, n, seed, first=-1)


def test_csv_schema_and_round_trip(row):
    text = comparison_csv([row])
    reader = csv.DictReader(io.StringIO(text))
    assert reader.fieldnames == COMPARISON_COLUMNS
    parsed = next(reader)
    # 17 significant digits round-trip the doubles exactly, so the z columns
    # recompute from the mean/se/closed-form columns to high accuracy.
    for tag, cf_col, mc_col, se_col, z_col in [
        ("honest", "cf_honest", "mc_honest", "mc_honest_se", "z_honest"),
        ("sk", "cf_skorokhod", "mc_sk", "mc_sk_se", "z_sk"),
        ("rs", "cf_forward", "mc_rs", "mc_rs_se", "z_rs"),
    ]:
        cf = float(parsed[cf_col])
        mc = float(parsed[mc_col])
        se = float(parsed[se_col])
        z = float(parsed[z_col])
        assert z == pytest.approx((mc - cf) / se, abs=1e-9), tag
    assert parsed["ordering_pass"] == "true"
    assert float(parsed["M"]) == BASE.M


def test_csv_floats_lossless(row):
    text = comparison_csv([row])
    parsed = next(csv.DictReader(io.StringIO(text)))
    assert float(parsed["mc_honest"]) == row.mc_honest
    assert float(parsed["mc_rs_se"]) == row.mc_rs_se


def test_json_mirrors_csv_fields(row):
    payload = json.loads(comparison_json([row], seed=7, samples=N, timestamp=False))
    assert set(payload["rows"][0]) >= set(COMPARISON_COLUMNS)
    assert payload["rows"][0]["rate_boundary"] is False
    assert payload["metadata"]["seed"] == 7
    assert payload["metadata"]["samples"] == N
    assert "generated_at" not in payload["metadata"]
    payload_ts = json.loads(comparison_json([row], seed=7, samples=N, timestamp=True))
    assert "generated_at" in payload_ts["metadata"]


def test_report_bytes_deterministic(row):
    again = run_compare(BASE, N, seed=7)
    assert comparison_csv([again]) == comparison_csv([row])
    assert comparison_json([again], 7, N, timestamp=False) == comparison_json(
        [row], 7, N, timestamp=False
    )


def test_compare_chunks_byte_identical():
    a = run_compare(BASE, N, seed=3, chunks=1)
    b = run_compare(BASE, N, seed=3, chunks=8)
    assert comparison_csv([a]) == comparison_csv([b])


class TestSweep:
    def test_sigma_sweep_marginal_ratio(self):
        """At mu == rho the rs/i ratio is 1 + erf(sigma sqrt(T) / (2 sqrt 2))."""
        base = validate_params(1, 0.05, 0.05, 1, 1)
        grid = (0.1, 0.2, 0.4)
        rows = run_sweep(base, "sigma", grid, 4096, 12)
        ratios = [r.cf_forward / r.cf_honest for r in rows]
        for sigma, ratio in zip(grid, ratios):
            expected = 1 + math.erf(sigma / (2 * math.sqrt(2)))
            assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratios == sorted(ratios)

    def test_tiny_horizon_collapses_to_m(self):
        base = validate_params(1, 0.05, 0.1, 0.2, 1)
        (r,) = run_sweep(base, "T", (1e-300,), 4096, 12)
        for v in (r.cf_honest, r.cf_skorokhod, r.cf_forward):
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_mu_sweep_across_regimes(self):
        base = validate_params(1, 0.05, 0.05, 0.2, 1)
        rows = run_sweep(base, "mu", (0.02, 0.05, 0.2), 4096, 12)
        assert [r.regime for r in rows] == ["bear", "marginal", "bull"]
        assert all(r.ordering_pass for r in rows)

    def test_overflow_row_marked_invalid_not_fatal(self):
        cases = [
            # T = 8000 overflows the closed forms.
            (validate_params(1, 0.05, 0.1, 0.2, 1), "T", (1.0, 8000.0)),
            # mu = 600 keeps the closed forms finite, but the samples'
            # second moment overflows: an inf stderr must not pass as z = 0.
            (validate_params(1, 0, 0.5, 3, 1), "mu", (0.5, 600.0)),
        ]
        for base, field, grid in cases:
            rows = run_sweep(base, field, grid, 4096, 12)
            assert rows[0].error is None
            assert rows[1].error is not None
            assert rows[1].regime == "invalid"
            assert not rows[1].ordering_pass
            assert math.isnan(rows[1].cf_honest)
            # still serializable
            comparison_csv(rows)
            comparison_json(rows, 12, 4096, timestamp=False)

    def test_zero_spread_row_marked_invalid_not_fatal(self):
        # At sigma = 400 the forward insider bets on the stock only where
        # b > a = 200, which no draw reaches: its estimate is 1.0 with zero
        # spread, while the closed form is 2.0.  The sigma = 0.5 row is the
        # one a lone point gives.
        base = validate_params(1, 0, 0, 1, 1)
        rows = run_sweep(base, "sigma", (0.5, 400.0), 4096, 12)
        assert rows[0] == run_sweep(base, "sigma", (0.5,), 4096, 12)[0]
        assert rows[1].regime == "invalid" and not rows[1].ordering_pass
        assert rows[1].error == "zero-spread estimate 1.0 does not match reference 2.0"

    def test_grid_validation(self):
        base = validate_params(1, 0.05, 0.1, 0.2, 1)
        with pytest.raises(OutOfDomainError):
            run_sweep(base, "beta", (1,), 10, 1)
        with pytest.raises(Exception):
            run_sweep(base, "sigma", (0.0,), 10, 1)
        with pytest.raises(OutOfDomainError):
            run_sweep(base, "sigma", (), 10, 1)

    def test_every_point_validated_before_any_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(report, "run_compare", lambda *args: ran.append(args))
        base = validate_params(1, 0.05, 0.1, 0.2, 1)
        with pytest.raises(NonPositiveError):
            run_sweep(base, "sigma", (0.2, 0.4, 0.0), 4096, 1)
        assert ran == []

    def test_per_point_seeds_are_master_plus_index(self):
        base = validate_params(1, 0.05, 0.1, 0.2, 1)
        rows = run_sweep(base, "sigma", (0.2, 0.2), 4096, 100)
        # same params, seeds 100 and 101: must match direct runs
        assert rows[0].mc_rs == run_compare(base, 4096, 100).mc_rs
        assert rows[1].mc_rs == run_compare(base, 4096, 101).mc_rs
        assert rows[0].mc_rs != rows[1].mc_rs

    def test_seed_is_checked_once_as_a_64_bit_int(self):
        base = validate_params(1, 0.05, 0.1, 0.2, 1)
        rows = run_sweep(base, "sigma", (1.0,), 4096, 7)
        for seed in (np.uint64(7), np.int64(7)):
            assert run_sweep(base, "sigma", (1.0,), 4096, seed) == rows
        with pytest.raises(OutOfDomainError, match="64 unsigned bits"):
            run_sweep(base, "sigma", (1.0,), 4096, -1)
        # The last seed still runs; its second point wraps to seed 0.
        top = run_sweep(base, "sigma", (1.0, 1.0), 4096, 2**64 - 1)
        assert top[1] == run_sweep(base, "sigma", (1.0,), 4096, 0)[0]


class TestConvergence:
    def test_rows_and_serialization(self):
        # A numpy step count is reported as a plain int (JSON needs one).
        steps = [1, np.int64(16)]
        rows = run_convergence(validate_params(1, 0, 0.5, 1, 1), steps, 8192, seed=5)
        assert [r.n_steps for r in rows] == [1, 16]
        for r in rows:
            assert r.abs_bias == abs(r.mc_mean - r.cf_forward)
            assert r.clamp_count >= 0
        text = convergence_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert [int(r["n_steps"]) for r in parsed] == [1, 16]
        payload = json.loads(convergence_json(rows, 5, 8192, timestamp=False))
        assert len(payload["rows"]) == 2

    def test_empty_step_list_rejected(self):
        for steps in ([], [2.5], np.array([], dtype=np.int64)):
            with pytest.raises(OutOfDomainError):
                run_convergence(validate_params(1, 0, 0.5, 1, 1), steps, 8192, seed=5)

    def test_step_array_is_the_step_list(self):
        p = validate_params(1, 0, 0.5, 1, 1)
        assert run_convergence(p, np.array([1, 4]), 4096, 7) == run_convergence(p, [1, 4], 4096, 7)

    def test_single_step_reported_without_assertion(self):
        (row,) = run_convergence(validate_params(1, 0, 0.5, 1, 1), [1], 8192, seed=5)
        assert row.n_steps == 1
        assert math.isfinite(row.abs_bias)

    def test_zero_spread_level_off_its_reference_raises(self):
        # At sigma = 50 the forward insider bets on the stock only where
        # b > a = 24.99, which no draw reaches: each level is the bond alone,
        # 1.0 with zero spread, off the closed form, as run_compare refuses.
        with pytest.raises(DegenerateEstimateError) as exc:
            run_convergence(validate_params(1, 0, 0.5, 50, 1), [3, 16], 4096, seed=5)
        assert str(exc.value) == "zero-spread estimate 1.0 does not match reference 2.648721270700128"

    def test_zero_spread_level_on_its_reference_is_a_row(self):
        # At a = +inf every path and the closed form take the bond alone.
        p = validate_params(1, 0.5, 0, 1e-310, 1)
        rows = run_convergence(p, [3, 16], 4096, seed=5)
        assert [(r.mc_mean, r.mc_se, r.abs_bias) for r in rows] == [(math.exp(0.5), 0.0, 0.0)] * 2
