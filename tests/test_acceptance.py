"""Acceptance battery: runs the built-in verification once per session and
asserts every criterion, printing its pass/fail line.  The same battery backs
the ``insidermc verify`` subcommand (exit 3 on any failure)."""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest

from insidermc import verify
from insidermc.verify import DEFAULT_SEED, CriterionResult, VerifySummary, run_verify


@pytest.fixture(scope="module")
def battery():
    """The battery at the archived seed, and every row list that it read
    from ``run_convergence``."""
    levels = []

    def spy(*args, **kwargs):
        levels.append(real(*args, **kwargs))
        return levels[-1]

    real = verify.run_convergence
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "run_convergence", spy)
        return run_verify(DEFAULT_SEED), levels


@pytest.fixture(scope="module")
def summary(battery):
    return battery[0]


# Exact means of the unclamped forward-Euler level at the showcase point
# (M, rho, mu, sigma, T) = (1, 0, 0.5, 1, 1), where a = 0, computed with
# mpmath at 60 and again at 90 digits.  With X_k iid N(0, dt), dt = T/N,
# S = sum X_k and c = 1 + mu dt, the increments given S = s are s/N plus a
# Gaussian of covariance dt (I - J/N), so Isserlis' theorem gives
#     E[prod_k (c + sigma X_k) | S = s]
#         = sum_{m even} C(N, m) (m-1)!! (-dt/N)^(m/2) sigma^m (c + sigma s/N)^(N-m),
# and the level mean is M Phi(a/sqrt T) e^{rho T} plus M times the
# integral of that over s > a against the N(0, T) density.
EULER_LEVEL_MEANS = {
    16: 1.8763206370216701584,
    64: 1.8844374309223550771,
    256: 1.8864659359540003096,
}


def test_euler_levels_lie_within_3_se_of_their_exact_means(battery):
    # c08 reads one run_convergence at 16, 64 and 256 steps.  Its clamps
    # move a level's mean by far less than one standard error, so each
    # level must cover the unclamped scheme's exact mean.
    _, levels = battery
    (rows,) = levels
    assert [row.n_steps for row in rows] == list(EULER_LEVEL_MEANS)
    for row in rows:
        z = (row.mc_mean - EULER_LEVEL_MEANS[row.n_steps]) / row.mc_se
        assert abs(z) <= 3.0, (row.n_steps, z)


CRITERIA = [
    (1, "closed-form-triple"),
    (2, "bull-ordering"),
    (3, "bear-ordering"),
    (4, "marginal-identities"),
    (5, "mc-agreement"),
    (6, "skorokhod-estimator-agreement"),
    (7, "skorokhod-dead-zone"),
    (8, "euler-weak-convergence"),
    (9, "worker-determinism"),
    (10, "special-functions"),
]


@pytest.mark.parametrize("index,name", CRITERIA, ids=[name for _, name in CRITERIA])
def test_criterion(summary, index, name):
    result = summary.results[index - 1]
    assert result.index == index
    assert result.name == name
    line = result.line(len(summary.results))
    print(f"{line}  ({result.seconds:.2f} s)")
    assert result.passed, line


def test_battery_verdict(summary):
    print(summary.render())
    assert summary.passed
    assert len(summary.results) == 10
    assert all(r.seconds > 0.0 for r in summary.results)
    # The rendered battery at the archived seed is frozen byte for byte.
    digest = hashlib.sha256(summary.render().encode("utf-8")).hexdigest()
    assert digest == "46251c5ae285b674d065d4767a704f9024d7b6e4d01dd0903d82ad8a8ff6c8b5"


def test_c09_compares_pooled_runs(recorded_pools):
    """Each of c09's six chunks=8 harness calls (run_compare's three
    estimates, the Euler level and the factorized estimate's two legs) hands
    slabs to the pool for at least 2 workers: a call that ran inline would
    compare a serial run with itself."""
    assert verify._c09_determinism(42).passed
    assert len(recorded_pools) == 6 and min(recorded_pools) >= 2, recorded_pools


def test_line_total_comes_from_summary():
    results = tuple(CriterionResult(i, f"c{i}", True, "ok") for i in (1, 2, 3))
    rendered = VerifySummary(seed=1, results=results).render()
    assert rendered.splitlines()[0] == "[ 1/3] PASS  c1: ok"
    assert rendered.splitlines()[-1] == "VERIFY: PASS (3/3 criteria, seed=1)"


def test_seconds_stay_out_of_render_and_equality():
    fast = CriterionResult(1, "c1", True, "ok", seconds=0.5)
    slow = CriterionResult(1, "c1", True, "ok", seconds=50.0)
    assert fast == slow
    assert VerifySummary(1, (fast,)).render() == VerifySummary(1, (slow,)).render()


def test_cheap_criteria_are_plain_json_records():
    # c10's round trip runs over np.arange, so its verdict starts life as a
    # numpy.bool, which json.dumps refuses.
    rows = [SimpleNamespace(zero_fraction=verify.ORACLE_DEAD_ZONE)]
    results = [
        verify._c01_closed_form_triple(),
        verify._ordering_criterion(2, "bull-ordering", "bull", DEFAULT_SEED),
        verify._ordering_criterion(3, "bear-ordering", "bear", DEFAULT_SEED),
        verify._ordering_criterion(4, "marginal-identities", "marginal", DEFAULT_SEED),
        verify._c07_dead_zone(rows),
        verify._c10_special_functions(),
    ]
    for result in results:
        assert type(result.passed) is bool, result.name
        assert json.loads(json.dumps(dataclasses.asdict(result)))["passed"] is True


def _grid_rows_with(exceedances):
    rows = [SimpleNamespace(z_honest=0.5, z_sk=-1.0, z_rs=2.9) for _ in verify.GRID]
    for row in rows[:exceedances]:
        row.z_sk = -3.5
    return rows


@pytest.mark.parametrize(
    "first,retry,passed",
    [(0, None, True), (1, 0, True), (1, 1, False), (2, None, False)],
    ids=["clean", "one-then-clean-retry", "one-then-one", "two"],
)
def test_c05_calibration_policy(monkeypatch, first, retry, passed):
    """One exceedance earns one retry on fresh ordinals; two, or one in the
    retry as well, fail."""
    batches = {0: _grid_rows_with(first)}
    if retry is not None:
        batches[verify._ORD_RETRY] = _grid_rows_with(retry)
    asked = []

    def grid_rows(seed, chunks, ordinal_base):
        asked.append(ordinal_base)
        return batches[ordinal_base]

    monkeypatch.setattr(verify, "_grid_rows", grid_rows)
    result, rows = verify._c05_mc_agreement(DEFAULT_SEED, 1)
    assert result.passed is passed
    assert asked == list(batches)
    # The retry rows stand in for the first ones only when the retry passed.
    assert rows is batches[verify._ORD_RETRY if retry == 0 else 0]


def test_harness_detects_corrupted_closed_form(monkeypatch):
    """Sanity of the battery itself: a perturbed formula must turn criteria red."""
    import dataclasses

    import insidermc.verify as verify_module

    real = verify_module.compare_closed_form

    def corrupted(p):
        report = real(p)
        return dataclasses.replace(report, forward=report.forward * (1 + 1e-6))

    monkeypatch.setattr(verify_module, "compare_closed_form", corrupted)
    result = verify_module._c01_closed_form_triple()
    assert not result.passed
