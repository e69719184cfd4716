import csv
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from insidermc import (
    cli,
    compare_closed_form,
    run_compare,
    run_convergence,
    run_sweep,
    validate_params,
)
from insidermc import report, verify
from insidermc.errors import OutOfDomainError
from insidermc.report import (
    closed_form_csv,
    closed_form_json,
    comparison_csv,
    comparison_json,
    convergence_csv,
    convergence_json,
)

ORACLE_TRIPLE = (1.6487212707001282, 1.324360635350064, 1.8871429788350047)

# Child interpreters import the package from this checkout's src directory,
# installed or not.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_child(*args):
    """The CLI in a fresh interpreter, for the module's own exit path."""
    return subprocess.run(
        [sys.executable, "-m", "insidermc.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def run_cli(capsys, *args):
    """``cli.main(args)`` in this process, with its exit code and output."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=captured.out, stderr=captured.err)


def test_closed_form_defaults_match_oracle(capsys):
    result = run_cli(capsys, "closed-form")
    assert result.returncode == 0
    parsed = next(csv.DictReader(io.StringIO(result.stdout)))
    assert float(parsed["cf_honest"]) == pytest.approx(ORACLE_TRIPLE[0], abs=1e-9)
    assert float(parsed["cf_skorokhod"]) == pytest.approx(ORACLE_TRIPLE[1], abs=1e-9)
    assert float(parsed["cf_forward"]) == pytest.approx(ORACLE_TRIPLE[2], abs=1e-9)
    assert parsed["ordering_pass"] == "true"


def test_closed_form_ordering_holds_at_small_sigma(capsys):
    # A bull point (a = -25000) whose evaluated forward and honest
    # expectations are the same double; the ordering is still the theorem.
    result = run_cli(capsys, "closed-form", "--M", "1", "--rho", "0", "--mu", "0.5",
                     "--sigma", "2e-5", "--T", "1")
    assert result.returncode == 0
    parsed = next(csv.DictReader(io.StringIO(result.stdout)))
    assert parsed["regime"] == "bull"
    assert parsed["ordering_pass"] == "true"


def test_validation_error_exits_2(capsys):
    result = run_cli(capsys, "compare", "--sigma", "0", "--samples", "64")
    assert result.returncode == 2
    assert "sigma" in result.stderr


def test_bad_sample_count_exits_2(capsys):
    result = run_cli(capsys, "compare", "--samples", "1")
    assert result.returncode == 2


def test_chunks_default_to_every_core():
    parser = cli.build_parser()
    for command in ("compare", "sweep", "convergence", "verify"):
        assert parser.parse_args([command]).chunks == (os.cpu_count() or 1)
    assert parser.parse_args(["compare", "--chunks", "1"]).chunks == 1
    default = inspect.signature(verify.run_verify).parameters["chunks"].default
    assert default == (os.cpu_count() or 1)


def main_exit(capsys, *argv):
    """(exit code, stderr) of ``cli.main(argv)`` when it exits in argparse."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    # One child interpreter keeps the module's own exit path covered.
    assert run_child("compare", "--bogus-flag", "1").returncode == 1
    assert main_exit(capsys)[0] == 1
    assert main_exit(capsys, "not-a-command")[0] == 1
    # Flags a command would not read are not accepted.
    for argv in (["closed-form", "--seed", "1"], ["closed-form", "--chunks", "2"],
                 ["verify", "--format", "json"], ["verify", "--no-timestamp"]):
        assert main_exit(capsys, *argv)[0] == 1
    # A bad flag value is named by what it should be, not by the parser's
    # type function.
    for argv, message in (
        (["convergence", "--steps", "2.5"], "expected comma-separated integers, got '2.5'"),
        (["sweep", "--grid", "0.1,x"], "expected comma-separated numbers, got '0.1,x'"),
        (["compare", "--seed", "-1"], "seed must fit in 64 unsigned bits"),
        (["compare", "--seed", "zz"], "seed must be a decimal or 0x-hex integer"),
    ):
        code, stderr = main_exit(capsys, *argv)
        assert code == 1
        assert message in stderr
        assert "invalid" not in stderr


def test_sweep_fields_are_stated_once_in_report(capsys):
    # The CLI offers the fields run_sweep accepts, from the same tuple.
    sweep = cli.build_parser().command_parsers["sweep"]
    (action,) = [a for a in sweep._actions if a.dest == "sweep_field"]
    assert action.choices is report.SWEEP_FIELDS
    assert report.SWEEP_FIELDS == ("rho", "mu", "sigma", "T")
    code, stderr = main_exit(capsys, "sweep", "--sweep-field", "M")
    assert code == 1
    assert "invalid choice: 'M'" in stderr
    message = "sweep field must be one of rho/mu/sigma/T, got 'M'"
    with pytest.raises(OutOfDomainError) as exc:
        run_sweep(validate_params(1.0, 0.0, 0.5, 1.0, 1.0), "M", (1.0,), 4096, 42)
    assert str(exc.value) == message


def test_package_runs_as_module():
    by_package, by_cli = (
        subprocess.run([sys.executable, "-m", module, "closed-form"], capture_output=True,
                       env=CHILD_ENV)
        for module in ("insidermc", "insidermc.cli")
    )
    assert by_package.returncode == by_cli.returncode == 0
    assert by_package.stdout == by_cli.stdout


def test_compare_byte_identical_across_workers(tmp_path, capsys):
    out1, out8 = tmp_path / "w1.json", tmp_path / "w8.json"
    common = ["compare", "--samples", "8192", "--seed", "0xDEADBEEF",
              "--format", "json", "--no-timestamp"]
    assert run_cli(capsys, *common, "--chunks", "1", "--out", str(out1)).returncode == 0
    assert run_cli(capsys, *common, "--chunks", "8", "--out", str(out8)).returncode == 0
    assert out1.read_bytes() == out8.read_bytes()
    # repeated run with identical arguments is also byte-identical
    out1b = tmp_path / "w1b.json"
    assert run_cli(capsys, *common, "--chunks", "1", "--out", str(out1b)).returncode == 0
    assert out1.read_bytes() == out1b.read_bytes()


def test_hex_and_decimal_seeds_agree(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "compare", "--samples", "4096", "--seed", "0x2A", "--out", str(a))
    run_cli(capsys, "compare", "--samples", "4096", "--seed", "42", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        capsys, "sweep", "--rho", "0.05", "--mu", "0.05", "--sweep-field", "sigma",
        "--grid", "0.1,0.2,0.4", "--samples", "4096", "--out", str(out),
    )
    assert result.returncode == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [float(r["sigma"]) for r in rows] == [0.1, 0.2, 0.4]
    ratios = [float(r["cf_forward"]) / float(r["cf_honest"]) for r in rows]
    assert ratios == sorted(ratios)


def test_convergence_json(capsys):
    result = run_cli(
        capsys, "convergence", "--steps", "1,4", "--samples", "4096",
        "--format", "json", "--no-timestamp",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert [r["n_steps"] for r in payload["rows"]] == [1, 4]


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "# market setup\n"
        "mu = 0.05\n"
        "rho = 0.05\n"
        "sigma = 0.4\n"
        "samples = 4096\n"
        "seed = 0x10\n"
    )
    result = run_cli(capsys, "compare", "--config", str(config), "--sigma", "0.8")
    assert result.returncode == 0
    parsed = next(csv.DictReader(io.StringIO(result.stdout)))
    assert float(parsed["sigma"]) == 0.8  # flag wins
    assert float(parsed["mu"]) == 0.05  # config applies
    assert parsed["regime"] == "marginal"
    # One file serves every command: closed-form ignores samples and seed.
    result = run_cli(capsys, "closed-form", "--config", str(config))
    assert result.returncode == 0
    assert float(next(csv.DictReader(io.StringIO(result.stdout)))["mu"]) == 0.05


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("volatility = 0.2\n")
    assert run_cli(capsys, "compare", "--config", str(config)).returncode == 2


def test_config_value_outside_choices_exits_2(tmp_path, capsys):
    config = tmp_path / "xml.conf"
    config.write_text("samples = 64\nformat = xml\n")
    result = run_cli(capsys, "compare", "--config", str(config))
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"{config}:2:" in result.stderr and "xml" in result.stderr
    # Values the flag's type function refuses are validation errors too, and
    # so is a line that is not 'key = value' at all.
    for line, message in (
        ("seed = -1", "bad value for seed: seed must fit in 64 unsigned bits"),
        ("steps = 2.5", "bad value for steps: expected comma-separated integers"),
        ("grid = 0.1,x", "bad value for grid: expected comma-separated numbers"),
        ("steps 4", "expected 'key = value'"),
    ):
        config.write_text(f"samples = 64\n{line}\n")
        result = run_cli(capsys, "convergence", "--config", str(config))
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"{config}:2: {message}" in result.stderr


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    result = run_cli(capsys, "closed-form", "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("insidermc: ")
    assert "Traceback" not in result.stderr


def test_verify_failure_exits_3(monkeypatch, capsys):
    from insidermc.verify import CriterionResult, VerifySummary

    failing = VerifySummary(
        seed=1,
        results=(CriterionResult(1, "closed-form-triple", False, "forced"),),
    )
    monkeypatch.setattr(verify, "run_verify", lambda seed, chunks: failing)
    assert cli.main(["verify", "--seed", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_success_exit_code(monkeypatch, capsys):
    from insidermc.verify import CriterionResult, VerifySummary

    passing = VerifySummary(
        seed=1,
        results=(CriterionResult(1, "closed-form-triple", True, "ok"),),
    )
    monkeypatch.setattr(verify, "run_verify", lambda seed, chunks: passing)
    assert cli.main(["verify", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_overflow_is_validation_error(capsys):
    assert run_cli(capsys, "closed-form", "--mu", "800").returncode == 2


def test_infinite_closed_form_exits_2(capsys):
    # Every exponent is in range, but M e^{mu T} = 1e308 e is not a double.
    assert cli.main(["closed-form", "--M", "1e308", "--mu", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the double range" in captured.err


def test_overflowed_statistic_exits_2(capsys):
    # Finite closed forms, but the Monte Carlo second moment overflows.
    result = run_cli(capsys, "compare", "--rho", "0", "--mu", "600", "--sigma", "3",
                     "--samples", "8192")
    assert result.returncode == 2
    assert result.stdout == ""


BASE = validate_params(1, 0.05, 0.1, 0.2, 1)
N, SEED = 8192, 7
MARKET_FLAGS = ["--rho", "0.05", "--mu", "0.1", "--sigma", "0.2", "--no-timestamp"]
MC_FLAGS = [*MARKET_FLAGS, "--samples", str(N), "--seed", str(SEED)]
# command -> (argv, rows from the library, (csv emitter, json emitter))
REPORT_COMMANDS = {
    "closed-form": (
        ["closed-form", *MARKET_FLAGS],
        lambda: [compare_closed_form(BASE)],
        (closed_form_csv, lambda rows: closed_form_json(rows, timestamp=False)),
    ),
    "compare": (
        ["compare", *MC_FLAGS],
        lambda: [run_compare(BASE, N, SEED)],
        (comparison_csv, lambda rows: comparison_json(rows, SEED, N, timestamp=False)),
    ),
    "sweep": (
        # T = 8000 overflows the closed forms: the grid ends in an invalid row.
        ["sweep", *MC_FLAGS, "--sweep-field", "T", "--grid", "0.5,2,8000"],
        lambda: run_sweep(BASE, "T", (0.5, 2.0, 8000.0), N, SEED),
        (comparison_csv, lambda rows: comparison_json(rows, SEED, N, timestamp=False)),
    ),
    "convergence": (
        ["convergence", *MC_FLAGS, "--steps", "1,4,16"],
        lambda: run_convergence(BASE, [1, 4, 16], N, SEED),
        (convergence_csv, lambda rows: convergence_json(rows, SEED, N, timestamp=False)),
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(REPORT_COMMANDS))
def test_report_command_prints_library_emitter_output(command, fmt, capsys):
    argv, rows, (to_csv, to_json) = REPORT_COMMANDS[command]
    assert cli.main([*argv, "--format", fmt]) == 0
    expected = to_csv(rows()) if fmt == "csv" else to_json(rows())
    assert capsys.readouterr().out == expected


def test_empty_step_list_exits_2(capsys):
    result = run_cli(capsys, "convergence", "--steps", "", "--samples", "4096")
    assert result.returncode == 2
    assert result.stdout == ""


def test_euler_overflow_exits_2_without_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would escape main as an error
        result = run_cli(capsys, "convergence", "--M", "1e300", "--rho", "0", "--mu", "600",
                         "--sigma", "3", "--steps", "16", "--samples", "8192")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Warning" not in result.stderr
    assert "Euler stock-leg product" in result.stderr


def test_sigma_past_the_double_range_reports_as_sigma_1e200(capsys):
    # Every stock value is +0.0 at both, although at sigma = 1e308 sigma b
    # overflows too: compare exits alike, and a sweep gives the valid row
    # and an invalid one with the same error.  Nothing warns.
    def both(*args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [run_cli(capsys, *(a.format(sigma=s) for a in args)) for s in ("1e308", "1e200")]

    huge, large = both("compare", "--sigma", "{sigma}", "--samples", "8192", "--chunks", "1")
    assert huge == large
    assert huge.returncode == 2 and huge.stdout == ""
    assert huge.stderr.startswith("insidermc: zero-spread estimate 0.0 does not match")
    huge, large = both("sweep", "--sweep-field", "sigma", "--grid", "0.5,{sigma}",
                       "--samples", "8192", "--format", "json", "--no-timestamp")
    assert huge.returncode == large.returncode == 0
    (valid, invalid), (valid_large, invalid_large) = (
        json.loads(r.stdout)["rows"] for r in (huge, large)
    )
    assert valid == valid_large and valid["regime"] == "bull"
    assert invalid["regime"] == invalid_large["regime"] == "invalid"
    assert invalid["error"] == invalid_large["error"]


def test_index_overflow_exits_2(capsys):
    result = run_cli(capsys, "compare", "--samples", str(10**20))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"insidermc: draw index {10**20 - 1} exceeds 2**63 - 1\n"


def test_degenerate_estimate_exits_2(capsys):
    # Both Skorokhod samples take the bond: a zero-spread estimate off its closed form.
    result = run_cli(capsys, "compare", "--samples", "2", "--seed", "1", "--chunks", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("insidermc: zero-spread estimate 1.0 does not match")
    assert result.stderr.count("\n") == 1


def test_zero_spread_convergence_level_exits_2(capsys):
    # At sigma = 50 no path bets on the stock: each level is the bond alone,
    # off the closed form, and convergence refuses it as compare does.
    for chunks in ("1", "2"):
        result = run_cli(capsys, "convergence", "--sigma", "50", "--steps", "3,16",
                         "--samples", "4096", "--chunks", chunks)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "insidermc: zero-spread estimate 1.0 does not match reference 2.648721270700128\n")


def test_zero_spread_sweep_point_is_an_invalid_row(capsys):
    # At sigma = 400 the forward estimate has zero spread off its closed
    # form (tests/test_report.py): that point is an invalid row, and the
    # sweep goes on.
    args = ["sweep", "--M", "1", "--rho", "0", "--mu", "0", "--sigma", "1", "--T", "1",
            "--sweep-field", "sigma", "--samples", "4096"]
    both = run_cli(capsys, *args, "--grid", "0.5,400")
    alone = run_cli(capsys, *args, "--grid", "0.5")
    assert both.returncode == alone.returncode == 0
    header, valid, invalid = both.stdout.splitlines()
    assert [header, valid] == alone.stdout.splitlines()
    row = next(csv.DictReader(io.StringIO(f"{header}\n{invalid}\n")))
    assert row["regime"] == "invalid" and float(row["sigma"]) == 400.0
