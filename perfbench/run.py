"""insidermc benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up time is the median of
several cold starts, each a fresh interpreter importing insidermc from
``src/`` and validating one parameter set; half run before the workload and
half after it, so they sample the same stretch of time as the workload.  The workload itself runs in a
fresh child process (``workloads.py``) so its peak resident memory is its
own.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with spans around every public call and prints the per-layer
metrics, and writes the spans under ``.perfbench/``.  Metric names and units
come from BENCHMARK.json.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_STARTS = 6
# A run must end within 180 s; leave room for set-up and reporting.
CHILD_DEADLINE_S = 170.0
COLD_START_CODE = "import insidermc; insidermc.validate_params(1.0, 0.0, 0.5, 1.0, 1.0)"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start_s() -> float:
    """Wall time of one fresh interpreter importing insidermc."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START_CODE], cwd=ROOT, env=child_env(),
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def import_times() -> dict[str, float]:
    """Import seconds of one cold start, from ``-X importtime``: the whole
    ``import insidermc``, and the part spent importing scipy (scipy.special
    and everything it pulls in), which is 0 if scipy is not imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", COLD_START_CODE],
                          cwd=ROOT, env=child_env(), check=True, capture_output=True,
                          text=True, timeout=60)
    rows = []  # (nesting depth, module, cumulative seconds), children before parents
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    scipy_s = 0.0
    for i, (depth, name, cumulative) in enumerate(rows):
        if not _is_scipy(name):
            continue
        ancestors = []
        for later_depth, later_name, _ in rows[i + 1:]:
            if later_depth < depth:
                ancestors.append(later_name)
                depth = later_depth
        if not any(_is_scipy(a) for a in ancestors):
            scipy_s += cumulative
    return {
        "setup.scipy_special_import_s": scipy_s,
        "setup.insidermc_import_s": next(c for _, n, c in rows if n == "insidermc"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="insidermc benchmark")
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs and one cold start, for the benchmark's own tests")
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "insidermc" / "__init__.py").is_file():
        print(f"run.py: no insidermc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cold_start = import_times if args.trace else lambda: {"setup_s": cold_start_s()}
    half = 1 if args.tiny else COLD_STARTS // 2

    try:
        cold_start_s()  # compiles bytecode and warms the file cache; not counted
        samples = [cold_start() for _ in range(half)]
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_DEADLINE_S - (time.perf_counter() - start))
        samples += [cold_start() for _ in range(half)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = {k: statistics.median(s[k] for s in samples) for k in samples[0]}

    if args.trace:
        declared = spec["per_layer"]
        values = {**child["layers"], **setup}
    else:
        declared = spec["end_to_end"]
        values = {
            **setup,
            "wall_s": child["wall_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": 1.0 - child["failed"] / child["attempted"],
        }
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        print(f"run.py: metrics not matching BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"machine: {json.dumps(child['machine'], sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} passes={child['passes']} "
          f"info={json.dumps(child['info'], sort_keys=True)}")
    if "trace_file" in child:
        print(f"spans: {child['trace_file']}")
    print(f"fail_frac = {child['failed'] / child['attempted']!r} "
          f"({child['failed']}/{child['attempted']})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
