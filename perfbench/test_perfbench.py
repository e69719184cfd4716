"""Tests of the benchmark itself: every workload reports every declared
metric, the gate never passes a broken statistic, and a corrupted program
shows up as failed operations."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import workloads
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def im():
    return workloads.import_program()


def run_cli(cwd, workload, trace, tiny=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    proc = run_cli(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert f"{m['name']} = " in proc.stdout
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert any(line.startswith("fail_frac = 0.0 ") for line in lines)
    assert any(line.startswith("machine: ") for line in lines)
    if trace and workload == "mc-terminal":
        metrics = result["metrics"]
        assert metrics["special.inverse_cdf.self_s"]["value"] > 0
        assert metrics["montecarlo.reduction.self_s"]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "euler-levels", 0, tiny=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_rejects_non_finite_statistics():
    assert workloads.estimate_ok(1.0, 0.01, 0.5)
    assert not workloads.estimate_ok(1.0, math.inf, -0.0)
    assert not workloads.estimate_ok(math.nan, 0.01, 0.5)
    assert not workloads.estimate_ok(1.0, 0.01, math.inf)
    assert not workloads.estimate_ok(1.0, 0.01, workloads.Z_MAX * 1.01)


def test_overflowed_second_moment_counts_as_failure(im):
    # mu = 600 overflows the Skorokhod sampler's M2 sum: the row comes back
    # with mc_sk_se = inf and z_sk = -0.0, which must not read as a pass.
    raw = (1.0, 0.0, 600.0, 3.0, 1.0)
    tally = workloads.Tally()
    with pytest.warns(RuntimeWarning):
        row = tally.call(im.run_compare, im.validate_params(*raw), 8192, 0)
    failed = 4 if row is None else workloads.row_failures(row, raw)
    assert failed >= 1


def test_corrupted_closed_form_raises_fail_frac(im, monkeypatch):
    real = im.closedform.compare_closed_form

    def corrupted(p):
        report = real(p)
        return dataclasses.replace(report, forward=report.forward * (1 + 1e-6))

    monkeypatch.setattr(im.closedform, "compare_closed_form", corrupted)
    monkeypatch.setattr(im.report, "compare_closed_form", corrupted)
    result = workloads.run_workload("mc-terminal", seed=3, seconds=0, trace=False, tiny=True)
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_spans_nest_and_tracer_restores_functions(im):
    original = im.sampling.uniform_block
    with Tracer(workloads.trace_targets()) as tracer:
        assert im.sampling.uniform_block is not original
        im.sampling.brownian_terminal_block(im.sampling.RngStream(1), 0, 1000, 1.0)
    assert im.sampling.uniform_block is original
    names = {s.ident: s.name for s in tracer.spans}
    parents = {s.name: names.get(s.parent) for s in tracer.spans}
    assert parents == {
        "sampling.uniform_block": "sampling.standard_normal_block",
        "sampling.standard_normal_block": "sampling.brownian_terminal_block",
        "sampling.brownian_terminal_block": None,
    }
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        assert 0 <= selfs[s.ident] <= s.duration


def test_tracer_keeps_every_span_under_thread_contention(monkeypatch):
    fake = types.ModuleType("insidermc._stress")
    fake.inner = lambda x: x + 1
    fake.outer = lambda x: fake.inner(x)
    monkeypatch.setitem(sys.modules, "insidermc._stress", fake)
    targets = {"outer": (fake, "outer", None), "inner": (fake, "inner", None)}
    threads, calls = 8, 200
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer(targets) as tracer, ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(lambda: [fake.outer(i) for i in range(calls)])
                       for _ in range(threads)]
            for f in futures:
                assert f.result(timeout=60) == list(range(1, calls + 1))
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == 2 * threads * calls
    by_id = {s.ident: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    for s in tracer.spans:
        if s.name == "inner":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
        else:
            assert s.parent is None
