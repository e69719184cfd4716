"""Comparison runs, parameter sweeps and Euler convergence studies, with
deterministic CSV/JSON emission.

The CSV schema is fixed (header row, column order below); reals are written
with 17 significant digits so parsing the file reproduces the doubles
exactly.  JSON mirrors the CSV fields per row plus a metadata object.
Identical inputs, including the seed, produce byte-identical output; the
timestamp is the only non-deterministic field and can be switched off.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
from dataclasses import asdict, dataclass

from . import __version__
from .closedform import ClosedFormReport, compare_closed_form, forward_expected_wealth
from .errors import OutOfDomainError, WealthOverflowError
from .market import MarketParams, validate_params
from .montecarlo import estimate_euler_mean, estimate_mean, z_score
from .samplers import Trader
from .sampling import derive_seed

__all__ = [
    "ComparisonRow",
    "SweepSpec",
    "ConvergenceRow",
    "run_compare",
    "run_sweep",
    "run_convergence",
    "comparison_csv",
    "comparison_json",
    "convergence_csv",
    "convergence_json",
    "closed_form_csv",
    "closed_form_json",
    "COMPARISON_COLUMNS",
]

COMPARISON_COLUMNS = [
    "M", "rho", "mu", "sigma", "T", "regime",
    "cf_honest", "cf_skorokhod", "cf_forward",
    "mc_honest", "mc_honest_se", "mc_sk", "mc_sk_se", "mc_rs", "mc_rs_se",
    "z_honest", "z_sk", "z_rs", "ordering_pass", "zero_fraction",
]

CLOSED_FORM_COLUMNS = [
    "M", "rho", "mu", "sigma", "T", "regime",
    "cf_honest", "cf_skorokhod", "cf_forward", "ordering_pass",
]

CONVERGENCE_COLUMNS = [
    "n_steps", "mc_mean", "mc_se", "cf_forward", "abs_bias", "clamp_count",
]

@dataclass(frozen=True)
class ComparisonRow:
    """One parameter point: closed forms, Monte Carlo triple and verdicts.

    The ordering verdict comes from the closed forms alone; Monte Carlo
    noise never flips the reported theorem check.  ``error`` is set (and the
    stochastic fields are NaN) when the point overflowed instead of
    evaluating.  The fields from ``regime`` to ``zero_fraction`` are named
    and ordered as the CSV columns after ``T``.
    """

    params: MarketParams
    regime: str
    cf_honest: float
    cf_skorokhod: float
    cf_forward: float
    mc_honest: float
    mc_honest_se: float
    mc_sk: float
    mc_sk_se: float
    mc_rs: float
    mc_rs_se: float
    z_honest: float
    z_sk: float
    z_rs: float
    ordering_pass: bool
    zero_fraction: float
    rate_boundary: bool
    error: str | None = None


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional parameter sweep around a base parameter set."""

    base: MarketParams
    sweep_field: str
    grid: tuple[float, ...]
    samples: int
    seed: int
    chunks: int = 1

    def __post_init__(self):
        if self.sweep_field not in ("rho", "mu", "sigma", "T"):
            raise OutOfDomainError(
                f"sweep_field must be one of rho/mu/sigma/T, got {self.sweep_field!r}"
            )
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if not self.grid:
            raise OutOfDomainError("sweep grid must not be empty")
        for g in self.grid:
            # Validate each grid value in place of the swept field.
            self.point_params(g)

    def point_params(self, value: float) -> MarketParams:
        raw = asdict(self.base)
        raw[self.sweep_field] = value
        return validate_params(**raw)


@dataclass(frozen=True)
class ConvergenceRow:
    """One discretization level of the forward-Euler study; its fields are
    the CSV columns, in order."""

    n_steps: int
    mc_mean: float
    mc_se: float
    cf_forward: float
    abs_bias: float
    clamp_count: int


def run_compare(
    p: MarketParams, n: int, seed: int, chunks: int = 1, first: int = 0
) -> ComparisonRow:
    """Closed forms plus the honest, Skorokhod and forward estimators at one
    parameter point, on the child seeds of ordinals first, first+1, first+2
    of ``seed``, so their draws are decorrelated."""
    report = compare_closed_form(p)
    traders = (Trader.HONEST_OPTIMAL, Trader.SKOROKHOD_UNBIASED, Trader.FORWARD_INSIDER)
    est_honest, est_sk, est_rs = (
        estimate_mean(trader, p, n, derive_seed(seed, first + k), chunks)
        for k, trader in enumerate(traders)
    )
    return ComparisonRow(
        params=p,
        regime=report.regime.value,
        cf_honest=report.honest_optimal,
        cf_skorokhod=report.skorokhod,
        cf_forward=report.forward,
        mc_honest=est_honest.mean,
        mc_honest_se=est_honest.stderr,
        mc_sk=est_sk.mean,
        mc_sk_se=est_sk.stderr,
        mc_rs=est_rs.mean,
        mc_rs_se=est_rs.stderr,
        z_honest=z_score(est_honest, report.honest_optimal),
        z_sk=z_score(est_sk, report.skorokhod),
        z_rs=z_score(est_rs, report.forward),
        ordering_pass=report.ordering_pass,
        zero_fraction=est_sk.zero_fraction,
        rate_boundary=report.rate_boundary,
    )


def _invalid_row(p: MarketParams, message: str) -> ComparisonRow:
    return ComparisonRow(
        params=p,
        regime="invalid",
        **{**dict.fromkeys(COMPARISON_COLUMNS[6:], float("nan")), "ordering_pass": False},
        rate_boundary=p.rate_boundary,
        error=message,
    )


def run_sweep(spec: SweepSpec) -> list[ComparisonRow]:
    """One comparison row per grid point.

    Point ``i`` runs with master seed ``seed + i`` (mod 2^64), so the sweep
    is deterministic given its seed.  A point whose exponentials leave the
    double range is reported as an invalid row instead of aborting the sweep.
    """
    rows = []
    for i, value in enumerate(spec.grid):
        p = spec.point_params(value)
        point_seed = (spec.seed + i) % (1 << 64)
        try:
            rows.append(run_compare(p, spec.samples, point_seed, spec.chunks))
        except WealthOverflowError as exc:
            rows.append(_invalid_row(p, str(exc)))
    return rows


def run_convergence(
    p: MarketParams, steps: list[int], n: int, seed: int, chunks: int = 1
) -> list[ConvergenceRow]:
    """Euler weak-convergence study: one row per step count.

    Level ``j`` runs on the child seed of ordinal ``j`` so levels do not
    share draws.  An empty step list raises OutOfDomainError rather than
    yielding an empty report.
    """
    if not steps:
        raise OutOfDomainError("convergence needs at least one step count")
    # Levels first: where an Euler product and the closed form both leave the
    # double range, the error names the product.
    ests = [
        estimate_euler_mean(p, n_steps, n, derive_seed(seed, j), chunks)
        for j, n_steps in enumerate(steps)
    ]
    reference = forward_expected_wealth(p)
    return [
        ConvergenceRow(
            n_steps=int(n_steps),  # a plain int once the estimator accepted it
            mc_mean=est.mean,
            mc_se=est.stderr,
            cf_forward=reference,
            abs_bias=abs(est.mean - reference),
            clamp_count=est.clamp_count,
        )
        for n_steps, est in zip(steps, ests)
    ]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _comparison_cells(row: ComparisonRow) -> dict:
    # The JSON-only keys ride along; the CSV picks its cells by column.
    cells = asdict(row.params)
    cells.update({c: getattr(row, c) for c in COMPARISON_COLUMNS[5:]})
    cells["rate_boundary"] = row.rate_boundary
    if row.error is not None:
        cells["error"] = row.error
    return cells


def _csv_from(columns: list[str], dict_rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for cells in dict_rows:
        writer.writerow([_fmt(cells[c]) for c in columns])
    return buf.getvalue()


def _metadata(seed: int | None, samples: int | None, timestamp: bool) -> dict:
    meta = {"tool_version": __version__}
    if seed is not None:
        meta["seed"] = seed
    if samples is not None:
        meta["samples"] = samples
    if timestamp:
        meta["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _json_from(
    dict_rows: list[dict], seed: int | None, samples: int | None, timestamp: bool
) -> str:
    payload = {
        "metadata": _metadata(seed, samples, timestamp),
        "rows": dict_rows,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def comparison_csv(rows: list[ComparisonRow]) -> str:
    return _csv_from(COMPARISON_COLUMNS, [_comparison_cells(r) for r in rows])


def comparison_json(
    rows: list[ComparisonRow], seed: int, samples: int, timestamp: bool = True
) -> str:
    return _json_from([_comparison_cells(r) for r in rows], seed, samples, timestamp)


def _closed_form_cells(report: ClosedFormReport) -> dict:
    cells = asdict(report.params)
    cells.update(
        regime=report.regime.value,
        cf_honest=report.honest_optimal,
        cf_skorokhod=report.skorokhod,
        cf_forward=report.forward,
        ordering_pass=report.ordering_pass,
        rate_boundary=report.rate_boundary,
    )
    return cells


def closed_form_csv(reports: list[ClosedFormReport]) -> str:
    return _csv_from(CLOSED_FORM_COLUMNS, [_closed_form_cells(r) for r in reports])


def closed_form_json(reports: list[ClosedFormReport], timestamp: bool = True) -> str:
    return _json_from([_closed_form_cells(r) for r in reports], None, None, timestamp)


def convergence_csv(rows: list[ConvergenceRow]) -> str:
    return _csv_from(CONVERGENCE_COLUMNS, [asdict(r) for r in rows])


def convergence_json(
    rows: list[ConvergenceRow], seed: int, samples: int, timestamp: bool = True
) -> str:
    return _json_from([asdict(r) for r in rows], seed, samples, timestamp)
