import csv
import io
import json
import subprocess
import sys

import pytest

from insidermc import cli

ORACLE_TRIPLE = (1.6487212707001282, 1.324360635350064, 1.8871429788350047)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "insidermc.cli", *args],
        capture_output=True,
        text=True,
    )


def test_closed_form_defaults_match_oracle():
    result = run_cli("closed-form")
    assert result.returncode == 0
    parsed = next(csv.DictReader(io.StringIO(result.stdout)))
    assert float(parsed["cf_honest"]) == pytest.approx(ORACLE_TRIPLE[0], abs=1e-9)
    assert float(parsed["cf_skorokhod"]) == pytest.approx(ORACLE_TRIPLE[1], abs=1e-9)
    assert float(parsed["cf_forward"]) == pytest.approx(ORACLE_TRIPLE[2], abs=1e-9)
    assert parsed["ordering_pass"] == "true"


def test_validation_error_exits_2():
    result = run_cli("compare", "--sigma", "0", "--samples", "64")
    assert result.returncode == 2
    assert "sigma" in result.stderr


def test_bad_sample_count_exits_2():
    result = run_cli("compare", "--samples", "1")
    assert result.returncode == 2


def test_usage_error_exits_1():
    assert run_cli("compare", "--bogus-flag", "1").returncode == 1
    assert run_cli().returncode == 1
    assert run_cli("not-a-command").returncode == 1


def test_compare_byte_identical_across_workers(tmp_path):
    out1, out8 = tmp_path / "w1.json", tmp_path / "w8.json"
    common = ["compare", "--samples", "8192", "--seed", "0xDEADBEEF",
              "--format", "json", "--no-timestamp"]
    assert run_cli(*common, "--chunks", "1", "--out", str(out1)).returncode == 0
    assert run_cli(*common, "--chunks", "8", "--out", str(out8)).returncode == 0
    assert out1.read_bytes() == out8.read_bytes()
    # repeated run with identical arguments is also byte-identical
    out1b = tmp_path / "w1b.json"
    assert run_cli(*common, "--chunks", "1", "--out", str(out1b)).returncode == 0
    assert out1.read_bytes() == out1b.read_bytes()


def test_hex_and_decimal_seeds_agree(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("compare", "--samples", "4096", "--seed", "0x2A", "--out", str(a))
    run_cli("compare", "--samples", "4096", "--seed", "42", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--rho", "0.05", "--mu", "0.05", "--sweep-field", "sigma",
        "--grid", "0.1,0.2,0.4", "--samples", "4096", "--out", str(out),
    )
    assert result.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(r["sigma"]) for r in rows] == [0.1, 0.2, 0.4]
    ratios = [float(r["cf_forward"]) / float(r["cf_honest"]) for r in rows]
    assert ratios == sorted(ratios)


def test_convergence_json():
    result = run_cli(
        "convergence", "--steps", "1,4", "--samples", "4096",
        "--format", "json", "--no-timestamp",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert [r["n_steps"] for r in payload["rows"]] == [1, 4]


def test_config_file_defaults_and_flag_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# market setup\n"
        "mu = 0.05\n"
        "rho = 0.05\n"
        "sigma = 0.4\n"
        "samples = 4096\n"
        "seed = 0x10\n"
    )
    result = run_cli("compare", "--config", str(config), "--sigma", "0.8")
    assert result.returncode == 0
    parsed = next(csv.DictReader(io.StringIO(result.stdout)))
    assert float(parsed["sigma"]) == 0.8  # flag wins
    assert float(parsed["mu"]) == 0.05  # config applies
    assert parsed["regime"] == "marginal"


def test_config_rejects_unknown_key(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("volatility = 0.2\n")
    assert run_cli("compare", "--config", str(config)).returncode == 2


def test_verify_failure_exits_3(monkeypatch, capsys):
    from insidermc.verify import CriterionResult, VerifySummary

    failing = VerifySummary(
        seed=1,
        results=(CriterionResult(1, "closed-form-triple", False, "forced"),),
    )
    monkeypatch.setattr(cli, "run_verify", lambda seed, chunks: failing)
    assert cli.main(["verify", "--seed", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_success_exit_code(monkeypatch, capsys):
    from insidermc.verify import CriterionResult, VerifySummary

    passing = VerifySummary(
        seed=1,
        results=(CriterionResult(1, "closed-form-triple", True, "ok"),),
    )
    monkeypatch.setattr(cli, "run_verify", lambda seed, chunks: passing)
    assert cli.main(["verify", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_overflow_is_validation_error():
    assert run_cli("closed-form", "--mu", "800").returncode == 2


def test_overflowed_statistic_exits_2():
    # Finite closed forms, but the Monte Carlo second moment overflows.
    result = run_cli("compare", "--rho", "0", "--mu", "600", "--sigma", "3",
                     "--samples", "8192")
    assert result.returncode == 2
    assert result.stdout == ""
