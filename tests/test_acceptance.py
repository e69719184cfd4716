"""Acceptance battery: runs the built-in verification once per session and
asserts every criterion, printing its pass/fail line.  The same battery backs
the ``insidermc verify`` subcommand (exit 3 on any failure)."""

import hashlib

import pytest

from insidermc.verify import DEFAULT_SEED, CriterionResult, VerifySummary, run_verify


@pytest.fixture(scope="module")
def summary():
    return run_verify(DEFAULT_SEED, chunks=1)


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
    print(line)
    assert result.passed, line


def test_battery_verdict(summary):
    print(summary.render())
    assert summary.passed
    assert len(summary.results) == 10
    # The rendered battery at the archived seed is frozen byte for byte.
    digest = hashlib.sha256(summary.render().encode("utf-8")).hexdigest()
    assert digest == "46251c5ae285b674d065d4767a704f9024d7b6e4d01dd0903d82ad8a8ff6c8b5"


def test_line_total_comes_from_summary():
    results = tuple(CriterionResult(i, f"c{i}", True, "ok") for i in (1, 2, 3))
    rendered = VerifySummary(seed=1, results=results).render()
    assert rendered.splitlines()[0] == "[ 1/3] PASS  c1: ok"
    assert rendered.splitlines()[-1] == "VERIFY: PASS (3/3 criteria, seed=1)"


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
