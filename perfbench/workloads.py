"""The insidermc benchmark workloads, their correctness gate and the
timed loop.  This module runs in a fresh child process started by
``run.py``, so the peak resident memory it reports belongs to one workload.

Every input comes from the benchmark seed through ``random.Random``; the
program only receives the generated parameter points and stream seeds.  An
operation is one estimator call, one Euler level or one closed-form point.
It fails when it raises, when any statistic is not finite, or when its
check against the benchmark's own reference fails.

Run as ``python3 perfbench/workloads.py --workload NAME --seed N --seconds S
--trace 0|1 [--tiny]``; it prints one JSON line and, when tracing, writes
the spans of one traced pass under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, self_times, to_records

ROOT = Path(__file__).resolve().parent.parent

# |z| bound of the gate.  Each run checks up to a few hundred estimates, so a
# 3-sigma bound would fail honest runs by chance; 6 sigma fails one estimate
# in 5e8.
Z_MAX = 6.0
# Closed forms must match the benchmark's math.erfc evaluation this closely.
CF_RTOL = 1e-10
# Allowed Euler weak bias per unit dt at the showcase point (measured bias is
# about 0.12 / n_steps, four times below this).
EULER_BIAS_PER_STEP = 0.5
GRANULE = 4096

# verify.GRID: bull, bear and marginal points, two with rho = 0.
GRID = [
    (1.0, 0.0, 0.5, 1.0, 1.0),
    (1.0, 0.05, 0.1, 0.2, 1.0),
    (2.5, 0.01, 0.3, 0.6, 2.0),
    (0.5, 0.03, 0.2, 0.4, 5.0),
    (1.0, 0.1, 0.05, 0.2, 2.0),
    (3.0, 0.2, 0.05, 0.8, 1.5),
    (0.7, 0.12, 0.02, 0.3, 4.0),
    (1.0, 0.07, 0.07, 0.2, 1.0),
    (2.0, 0.04, 0.04, 0.5, 3.0),
    (1.5, 0.0, 0.0, 1.0, 0.5),
]
SHOWCASE = GRID[0]

im = None  # the insidermc package, bound by import_program()


def import_program(root: Path = ROOT):
    """Import insidermc from ``root/src`` and refuse any other copy."""
    global im
    src = (root / "src").resolve()
    if not (src / "insidermc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no insidermc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import insidermc
    import insidermc.report  # noqa: F401  (submodules are reached as attributes)

    if src not in Path(insidermc.__file__).resolve().parents:
        raise ImportError(f"insidermc imported from {insidermc.__file__}, not {src}")
    im = insidermc
    return insidermc


# ---------------------------------------------------------------- the gate


def estimate_ok(mean: float, stderr: float, z: float) -> bool:
    """An estimate passes only if mean, stderr and z are finite and |z| <= Z_MAX.

    A finite z over an infinite stderr (z = -0.0) is a failure, not a pass.
    """
    return (
        math.isfinite(mean) and math.isfinite(stderr) and math.isfinite(z)
        and abs(z) <= Z_MAX
    )


def reference_closed_form(M, rho, mu, sigma, T) -> tuple[float, float, float]:
    """(honest optimal, Skorokhod, forward) expectations from math.erfc."""
    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    at = (rho - mu + 0.5 * sigma * sigma) * T / sigma / math.sqrt(T)
    bond, stock = math.exp(rho * T), math.exp(mu * T)
    honest = M * max(bond, stock)
    sk = M * (phi(at) * bond + phi(-at) * stock)
    rs = M * (phi(at) * bond + phi(sigma * math.sqrt(T) - at) * stock)
    return honest, sk, rs


def _close(x: float, ref: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= CF_RTOL * abs(ref)


def closed_form_ok(raw, honest, sk, rs, ordering_pass) -> bool:
    """Values match the reference and respect the regime's ordering."""
    ref = reference_closed_form(*raw)
    if not all(_close(x, r) for x, r in zip((honest, sk, rs), ref)):
        return False
    slack = 1.0 + 8.0 * sys.float_info.epsilon
    _, rho, mu, _, _ = raw
    if mu == rho:
        ordered = abs(sk - honest) <= 1e-12 * honest and rs > honest
    else:
        ordered = sk <= honest * slack and honest <= rs * slack
    return bool(ordering_pass) and ordered


def row_failures(row, raw) -> int:
    """Failed operations of one comparison row: its closed-form point and
    its three estimators (4 operations)."""
    failed = 0 if closed_form_ok(
        raw, row.cf_honest, row.cf_skorokhod, row.cf_forward, row.ordering_pass
    ) else 1
    for mean, se, z in (
        (row.mc_honest, row.mc_honest_se, row.z_honest),
        (row.mc_sk, row.mc_sk_se, row.z_sk),
        (row.mc_rs, row.mc_rs_se, row.z_rs),
    ):
        failed += not estimate_ok(mean, se, z)
    return failed


def factorized_ok(est, raw, translation_mean, translation_se) -> bool:
    """The Wick-factorized estimate against the reference and the translation form."""
    ref_sk = reference_closed_form(*raw)[1]
    z = (est.mean - ref_sk) / est.stderr if est.stderr > 0 else math.inf
    if not estimate_ok(est.mean, est.stderr, z):
        return False
    return abs(est.mean - translation_mean) <= Z_MAX * math.hypot(est.stderr, translation_se)


def euler_level_ok(row, n_steps: int, ref_forward: float) -> bool:
    finite = math.isfinite(row.mc_mean) and math.isfinite(row.mc_se) and row.mc_se > 0
    allowed = Z_MAX * row.mc_se + EULER_BIAS_PER_STEP / n_steps
    return (
        finite
        and row.n_steps == n_steps
        and _close(row.cf_forward, ref_forward)
        and abs(row.mc_mean - ref_forward) <= allowed
        and row.clamp_count >= 0
    )


def parsed_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def cell_matches(cell: str, value) -> bool:
    """A CSV report cell reproduces ``value`` exactly."""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    return float(cell) == value


def emitted_ok(cells: dict, expected: dict) -> bool:
    return all(k in cells and cell_matches(cells[k], v) for k, v in expected.items())


# ------------------------------------------------------------ timing aids


class Clock:
    """Durations per step key; a report's time is the sum of step medians."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}

    def timed(self, key: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.times.setdefault(key, []).append(time.perf_counter() - t0)

    def total(self) -> float:
        return sum(statistics.median(v) for v in self.times.values())


class Tally:
    """Attempted and failed operations; the first few tracebacks go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._shown = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def call(self, fn, *args):
        """fn(*args), or None after reporting the exception it raised."""
        try:
            return fn(*args)
        except Exception:
            if self._shown < 3:
                self._shown += 1
                traceback.print_exc(file=sys.stderr)
            return None


# ------------------------------------------------------------- workloads


class Workload:
    """A checked report built from seed-generated inputs, one pass at a time."""

    def precheck(self, tally: Tally) -> dict:
        """Untimed checks before the timed passes; returns printed facts."""
        return {}

    @property
    def draws_per_report(self) -> int:
        return 0


class McTerminal(Workload):
    """verify.GRID: run_compare plus the factorized Skorokhod estimate per point.

    Each point is 5 operations: its closed form, the three terminal
    estimators and the factorized estimate.
    """

    chunks = 1
    factorized = True

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        self.n = 2 * GRANULE if tiny else 10**6
        grid = GRID[:2] if tiny else GRID
        self.points = [(raw, rng.getrandbits(64), rng.getrandbits(64)) for raw in grid]
        self.ops = 5 if self.factorized else 4
        self.first: list | None = None

    @property
    def draws_per_report(self) -> int:
        # run_compare draws n per estimator; the factorized estimate draws 2n.
        return len(self.points) * self.n * (5 if self.factorized else 3)

    def run_pass(self, clock: Clock, tally: Tally) -> None:
        results = [
            clock.timed(f"point{i}", self._point, tally, raw, seed, fseed)
            for i, (raw, seed, fseed) in enumerate(self.points)
        ]
        rows = [row for row, _ in results if row is not None]
        text = clock.timed("emit", tally.call, im.report.comparison_csv, rows)
        emitted = iter(parsed_rows(text) if text else [])
        for i, ((row, fact), (raw, _, _)) in enumerate(zip(results, self.points)):
            tally.add(self.ops, self._failures(i, row, fact, raw, emitted))
        if self.first is None:
            self.first = results

    def _point(self, tally: Tally, raw, seed, fseed):
        p = tally.call(im.validate_params, *raw)
        if p is None:
            return None, None
        row = tally.call(im.report.run_compare, p, self.n, seed, self.chunks)
        fact = None
        if self.factorized:
            fact = tally.call(
                im.montecarlo.skorokhod_factorized_estimate,
                p, im.sampling.RngStream(fseed), self.n, self.chunks,
            )
        return row, fact

    def _failures(self, i, row, fact, raw, emitted) -> int:
        if row is None:
            return self.ops
        expected = {
            "cf_honest": row.cf_honest, "cf_skorokhod": row.cf_skorokhod,
            "cf_forward": row.cf_forward, "mc_honest": row.mc_honest,
            "mc_sk": row.mc_sk, "mc_rs": row.mc_rs, "mc_sk_se": row.mc_sk_se,
            "z_rs": row.z_rs, "ordering_pass": row.ordering_pass,
        }
        same = self.first is None or self.first[i] == (row, fact)
        if not (same and emitted_ok(next(emitted, {}), expected)):
            return self.ops
        failed = row_failures(row, raw)
        if self.factorized:
            failed += fact is None or not factorized_ok(fact, raw, row.mc_sk, row.mc_sk_se)
        return failed


class McTerminal2w(McTerminal):
    """The three terminal estimators at the showcase point, 2^24 draws each
    with chunks=2, so every call splits into four 2^22-draw pool tasks."""

    chunks = 2
    factorized = False

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.n = 3 * GRANULE if tiny else 1 << 24
        self.check_n = 2 * GRANULE if tiny else 1 << 23
        self.points = self.points[:1]
        self.check_seed = random.Random(~seed).getrandbits(64)

    def precheck(self, tally: Tally) -> dict:
        """chunks=2 must equal chunks=1 bitwise on an untimed two-task range;
        the ratio of their times is the 2-worker scaling, printed only."""
        p = im.validate_params(*SHOWCASE)
        args = (im.Trader.FORWARD_INSIDER, p, self.check_n, self.check_seed)
        t0 = time.perf_counter()
        one = tally.call(im.montecarlo.estimate_mean, *args, 1)
        t1 = time.perf_counter()
        two = tally.call(im.montecarlo.estimate_mean, *args, 2)
        t2 = time.perf_counter()
        ref = reference_closed_form(*SHOWCASE)[2]
        ok = (
            one is not None and one == two
            and estimate_ok(one.mean, one.stderr, (one.mean - ref) / one.stderr)
        )
        tally.add(2, 0 if ok else 2)
        return {"bitwise_chunks_1_vs_2": ok, "scaling_2w": (t1 - t0) / (t2 - t1)}


class EulerLevels(Workload):
    """run_convergence at the showcase point, steps 16, 64 and 256, chunks=1."""

    steps = (16, 64, 256)

    def __init__(self, seed: int, tiny: bool):
        self.n = GRANULE if tiny else 1 << 14
        self.seed = random.Random(seed).getrandbits(64)
        self.reference = reference_closed_form(*SHOWCASE)[2]
        self.first = None

    @property
    def draws_per_report(self) -> int:
        return self.n * sum(self.steps)

    def _levels(self, tally: Tally):
        p = tally.call(im.validate_params, *SHOWCASE)
        return None if p is None else tally.call(
            im.report.run_convergence, p, list(self.steps), self.n, self.seed, 1
        )

    def run_pass(self, clock: Clock, tally: Tally) -> None:
        rows = clock.timed("levels", self._levels, tally)
        text = clock.timed("emit", tally.call, im.report.convergence_csv, rows or [])
        emitted = parsed_rows(text) if text else []
        if rows is None or len(rows) != len(self.steps) or len(emitted) != len(rows):
            tally.add(len(self.steps), len(self.steps))
            return
        failed = 0
        for row, n_steps, cells in zip(rows, self.steps, emitted):
            failed += not (
                euler_level_ok(row, n_steps, self.reference)
                and emitted_ok(cells, {"mc_mean": row.mc_mean, "mc_se": row.mc_se,
                                       "clamp_count": row.clamp_count})
            )
        if self.first is not None and self.first != rows:
            failed = len(self.steps)
        self.first = self.first or rows
        tally.add(len(self.steps), failed)


WORKLOADS = {
    "mc-terminal": McTerminal,
    "mc-terminal-2w": McTerminal2w,
    "euler-levels": EulerLevels,
}


# --------------------------------------------------------------- tracing


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count(args, kwargs, result):
    return {"draws": int(_arg(args, kwargs, 2, "count"))}


def _size(args, kwargs, result):
    return {"draws": int(result.size)}


def _forward_counts(args, kwargs, result):
    p, b_t = args[0], args[1]
    a = im.market.indicator_threshold(p)
    return {"draws": int(b_t.size), "stock": int((b_t > a).sum())}


def _euler_counts(args, kwargs, result):
    inc = args[1]
    return {"steps": int(inc.size), "bytes": int(inc.nbytes),
            "clamped": int(result[1].sum())}


def _workers(index):
    return lambda args, kwargs, result: {
        "workers": int(_arg(args, kwargs, index, "chunks", 1))
    }


def _estimate_mean_counts(args, kwargs, result):
    out = _workers(4)(args, kwargs, result)
    if im.Trader(args[0]) is im.Trader.SKOROKHOD_UNBIASED:
        out["zeros"] = result.zero_fraction * result.n
        out["sk_draws"] = result.n
    return out


def _emitted_bytes(args, kwargs, result):
    return {"bytes": len(result)}


EMITTERS = ("comparison_csv", "comparison_json", "convergence_csv", "convergence_json",
            "closed_form_csv", "closed_form_json")


def trace_targets() -> dict:
    """Span name -> (module, function, counter) for every traced public call."""
    s, sp, mc = im.sampling, im.samplers, im.montecarlo
    targets = {
        "sampling.uniform_block": (s, "uniform_block", _count),
        "sampling.standard_normal_block": (s, "standard_normal_block", _count),
        "sampling.brownian_terminal_block": (s, "brownian_terminal_block", _count),
        "sampling.brownian_increments_block": (s, "brownian_increments_block", _size),
        "samplers.honest_values": (sp, "honest_values", _size),
        "samplers.forward_insider_values": (sp, "forward_insider_values", _forward_counts),
        "samplers.skorokhod_unbiased_values": (sp, "skorokhod_unbiased_values", _size),
        "samplers.forward_euler_values": (sp, "forward_euler_values", _euler_counts),
        "montecarlo.estimate_mean": (mc, "estimate_mean", _estimate_mean_counts),
        "montecarlo.skorokhod_factorized_estimate": (mc, "skorokhod_factorized_estimate",
                                                     _workers(3)),
        "montecarlo.estimate_euler_mean": (mc, "estimate_euler_mean", _workers(4)),
        "closedform.compare_closed_form": (im.closedform, "compare_closed_form", None),
        "report.run_compare": (im.report, "run_compare", None),
        "report.run_convergence": (im.report, "run_convergence", None),
    }
    for name in EMITTERS:
        targets[f"report.{name}"] = (im.report, name, _emitted_bytes)
    return targets


ESTIMATORS = ("montecarlo.estimate_mean", "montecarlo.skorokhod_factorized_estimate",
              "montecarlo.estimate_euler_mean")


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced report passes.

    Times are seconds per report; rates are work over busy time (0 when the
    workload never enters the layer).
    """
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    selfs = self_times(spans)

    def busy(name):
        return sum(sp.duration for sp in by_name.get(name, ())) / passes

    def total(name, key):
        return sum(sp.counts.get(key, 0) for sp in by_name.get(name, ()))

    def rate(name, key):
        t = busy(name) * passes
        return total(name, key) / t if t > 0 else 0.0

    def self_sum(names):
        return sum(selfs[sp.ident] for n in names for sp in by_name.get(n, ())) / passes

    fwd_draws = total("samplers.forward_insider_values", "draws")
    sk_draws = total("montecarlo.estimate_mean", "sk_draws")
    emit_names = [f"report.{n}" for n in EMITTERS]
    return {
        "sampling.uniform_block.draws_per_s": rate("sampling.uniform_block", "draws"),
        "sampling.standard_normal_block.draws_per_s":
            rate("sampling.standard_normal_block", "draws"),
        "sampling.brownian_terminal_block.busy_s": busy("sampling.brownian_terminal_block"),
        "sampling.brownian_increments_block.draws_per_s":
            rate("sampling.brownian_increments_block", "draws"),
        "special.inverse_cdf.self_s": self_sum(["sampling.standard_normal_block"]),
        "samplers.honest_values.busy_s": busy("samplers.honest_values"),
        "samplers.forward_insider_values.busy_s": busy("samplers.forward_insider_values"),
        "samplers.skorokhod_unbiased_values.busy_s":
            busy("samplers.skorokhod_unbiased_values"),
        "samplers.stock_branch_frac":
            total("samplers.forward_insider_values", "stock") / fwd_draws if fwd_draws else 0.0,
        "samplers.forward_euler_values.steps_per_s":
            rate("samplers.forward_euler_values", "steps"),
        "samplers.forward_euler_values.clamped":
            total("samplers.forward_euler_values", "clamped") / passes,
        "samplers.forward_euler_values.bytes_computed":
            total("samplers.forward_euler_values", "bytes") / passes,
        "montecarlo.estimate_mean.busy_s": busy("montecarlo.estimate_mean"),
        "montecarlo.skorokhod_factorized_estimate.busy_s":
            busy("montecarlo.skorokhod_factorized_estimate"),
        "montecarlo.estimate_euler_mean.busy_s": busy("montecarlo.estimate_euler_mean"),
        "montecarlo.reduction.self_s": self_sum(ESTIMATORS),
        "montecarlo.workers": max(
            (sp.counts.get("workers", 0) for n in ESTIMATORS for sp in by_name.get(n, ())),
            default=0,
        ),
        "montecarlo.zero_fraction":
            total("montecarlo.estimate_mean", "zeros") / sk_draws if sk_draws else 0.0,
        "closedform.compare_closed_form.busy_s": busy("closedform.compare_closed_form"),
        "report.emit.busy_s": sum(busy(n) for n in emit_names),
        "report.emit.bytes": sum(total(n, "bytes") for n in emit_names) / passes,
        "report.run_compare.busy_s": busy("report.run_compare"),
        "report.run_convergence.busy_s": busy("report.run_convergence"),
    }


# ---------------------------------------------------------- the timed loop


def machine() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "nproc": os.cpu_count(), "caches": caches, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 out_dir: Path | None = None) -> dict:
    """Warm up, run the checked report passes for about ``seconds`` and
    return wall time, operation counts and, when tracing, layer metrics."""
    cls = WORKLOADS[name]
    cls(seed, tiny=True).run_pass(Clock(), Tally())  # warm-up, not counted
    workload = cls(seed, tiny)
    tally = Tally()
    info = workload.precheck(tally)

    plain, traced = Clock(), Clock()
    spans, first_pass_spans, traced_passes = [], None, 0
    min_passes = 1 if tiny else 2
    start = time.perf_counter()
    pass_times = []
    while True:
        use_trace = trace and len(pass_times) % 2 == 1
        t0 = time.perf_counter()
        if use_trace:
            with Tracer(trace_targets()) as tracer:
                workload.run_pass(traced, tally)
            spans.extend(tracer.spans)
            first_pass_spans = first_pass_spans or (tracer.spans, t0)
            traced_passes += 1
        else:
            workload.run_pass(plain, tally)
        pass_times.append(time.perf_counter() - t0)
        enough = len(pass_times) >= min_passes * (2 if trace else 1)
        if enough and time.perf_counter() - start + statistics.median(pass_times) > seconds:
            break

    if workload.draws_per_report:
        info["draws_per_s"] = workload.draws_per_report / plain.total()
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "passes": len(pass_times),
        "wall_s": plain.total(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "info": info,
        "machine": machine(),
    }
    if trace:
        layers = layer_metrics(spans, traced_passes)
        layers["trace.overhead_s"] = traced.total() - plain.total()
        result["layers"] = layers
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"trace-{name}-{seed}.json"
            records = to_records(*first_pass_spans)
            path.write_text(json.dumps({
                "workload": name, "seed": seed, "machine": result["machine"],
                "layers": layers, "first_traced_pass_spans": records,
            }))
            result["trace_file"] = str(path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    import_program()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.tiny, ROOT / ".perfbench")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
