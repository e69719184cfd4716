"""Comparison runs, parameter sweeps and Euler convergence studies, with
deterministic CSV/JSON emission.

The three runs take plain arguments: ``run_compare(p, n, seed, chunks)``,
``run_sweep(p, field, grid, n, seed, chunks)`` and
``run_convergence(p, steps, n, seed, chunks)``.

The CSV schema is fixed: a header row, then the row types' fields in
order.  Reals are written with 17 significant digits so parsing the file
reproduces the doubles exactly.  JSON mirrors the CSV fields per row plus a metadata object.
Identical inputs, including the seed, produce byte-identical output; the
timestamp is the only non-deterministic field and can be switched off.

The runs import the Monte Carlo modules when called, so the closed-form
emitters need no numpy.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields

from . import __version__
from .closedform import ClosedFormReport, compare_closed_form, expected_wealth
from .errors import DegenerateEstimateError, OutOfDomainError, WealthOverflowError
from .market import MarketParams, Trader, validate_params

__all__ = [
    "ComparisonRow",
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
    "SWEEP_FIELDS",
]

# The MarketParams fields a sweep may vary.
SWEEP_FIELDS = ("rho", "mu", "sigma", "T")


@dataclass(frozen=True)
class ComparisonRow:
    """One parameter point: closed forms, Monte Carlo triple and verdicts.

    The ordering verdict comes from the closed forms alone; Monte Carlo
    noise never flips the reported theorem check.  ``error`` is set (and the
    stochastic fields are NaN) when the point overflowed instead of
    evaluating.
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
    error: str | None = None


@dataclass(frozen=True)
class ConvergenceRow:
    """One discretization level of the forward-Euler study."""

    n_steps: int
    mc_mean: float
    mc_se: float
    cf_forward: float
    abs_bias: float
    clamp_count: int


COMPARISON_COLUMNS = [f.name for f in (*fields(MarketParams), *fields(ComparisonRow)[1:-1])]
CLOSED_FORM_COLUMNS = [*COMPARISON_COLUMNS[:9], "ordering_pass"]
CONVERGENCE_COLUMNS = [f.name for f in fields(ConvergenceRow)]


def _closed_form_fields(report: ClosedFormReport) -> dict:
    """The row fields a closed-form record fills, named as their columns."""
    return {
        "regime": report.regime.value,
        "cf_honest": report.honest_optimal,
        "cf_skorokhod": report.skorokhod,
        "cf_forward": report.forward,
        "ordering_pass": report.ordering_pass,
    }


def run_compare(
    p: MarketParams, n: int, seed: int, chunks: int = 1, first: int = 0
) -> ComparisonRow:
    """Closed forms plus the honest, Skorokhod and forward estimators at one
    parameter point, on the child seeds of ordinals first, first+1, first+2
    of ``seed``, so their draws are decorrelated."""
    from .montecarlo import estimate_mean, z_score
    from .sampling import derive_seed

    report = compare_closed_form(p)
    traders = (Trader.HONEST_OPTIMAL, Trader.SKOROKHOD_UNBIASED, Trader.FORWARD_INSIDER)
    est_honest, est_sk, est_rs = (
        estimate_mean(trader, p, n, derive_seed(seed, first + k), chunks)
        for k, trader in enumerate(traders)
    )
    return ComparisonRow(
        params=p,
        **_closed_form_fields(report),
        mc_honest=est_honest.mean,
        mc_honest_se=est_honest.stderr,
        mc_sk=est_sk.mean,
        mc_sk_se=est_sk.stderr,
        mc_rs=est_rs.mean,
        mc_rs_se=est_rs.stderr,
        z_honest=z_score(est_honest, report.honest_optimal),
        z_sk=z_score(est_sk, report.skorokhod),
        z_rs=z_score(est_rs, report.forward),
        zero_fraction=est_sk.zero_fraction,
    )


def _invalid_row(p: MarketParams, message: str) -> ComparisonRow:
    return ComparisonRow(
        params=p,
        regime="invalid",
        **{**dict.fromkeys(COMPARISON_COLUMNS[6:], float("nan")), "ordering_pass": False},
        error=message,
    )


def run_sweep(
    p: MarketParams, field: str, grid: tuple[float, ...], n: int, seed: int, chunks: int = 1
) -> list[ComparisonRow]:
    """One comparison row per value of ``field`` (one of SWEEP_FIELDS) in
    ``grid``, the other parameters those of ``p``.

    The field, a nonempty grid, every grid point and the seed are validated
    before any point runs.  Point ``i`` runs with master seed ``seed + i``
    (mod 2^64), so the sweep is deterministic given its seed; a numpy
    integer seed runs as the equal int.  A point whose exponentials leave
    the double range, or whose estimate has zero spread off its closed form,
    is reported as an invalid row that keeps the error's message, instead of
    aborting the sweep.
    """
    from .sampling import RngStream

    if field not in SWEEP_FIELDS:
        raise OutOfDomainError(
            f"sweep field must be one of {'/'.join(SWEEP_FIELDS)}, got {field!r}"
        )
    points = [validate_params(**{**asdict(p), field: float(value)}) for value in grid]
    if not points:
        raise OutOfDomainError("sweep grid must not be empty")
    seed = RngStream(seed).seed
    rows = []
    for i, point in enumerate(points):
        try:
            rows.append(run_compare(point, n, (seed + i) % (1 << 64), chunks))
        except (WealthOverflowError, DegenerateEstimateError) as exc:
            rows.append(_invalid_row(point, str(exc)))
    return rows


def run_convergence(
    p: MarketParams, steps: Iterable[int], n: int, seed: int, chunks: int = 1
) -> list[ConvergenceRow]:
    """Euler weak-convergence study: one row per step count in ``steps``,
    any sequence, a numpy array included.

    Level ``j`` runs on the child seed of ordinal ``j`` so levels do not
    share draws.  An empty step list raises OutOfDomainError rather than
    yielding an empty report.  A level with zero spread that misses the
    closed form raises DegenerateEstimateError, as in :func:`run_compare`.
    """
    from .montecarlo import estimate_euler_mean, z_score
    from .sampling import derive_seed

    steps = list(steps)
    if not steps:
        raise OutOfDomainError("convergence needs at least one step count")
    # Levels first: where an Euler product and the closed form both leave the
    # double range, the error names the product.
    ests = [
        estimate_euler_mean(p, n_steps, n, derive_seed(seed, j), chunks)
        for j, n_steps in enumerate(steps)
    ]
    reference = expected_wealth(Trader.FORWARD_INSIDER, p)
    for est in ests:
        z_score(est, reference)  # the exact-match rule of a zero-spread level
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


def _cells(params: MarketParams, values: dict) -> dict:
    # The JSON-only keys ride along; the CSV picks its cells by column.
    return {**asdict(params), **values, "rate_boundary": params.rate_boundary}


def _comparison_cells(row: ComparisonRow) -> dict:
    cells = _cells(row.params, {c: getattr(row, c) for c in COMPARISON_COLUMNS[5:]})
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


def _json_from(
    dict_rows: list[dict], seed: int | None, samples: int | None, timestamp: bool
) -> str:
    metadata = {"tool_version": __version__}
    if seed is not None:
        metadata["seed"] = seed
    if samples is not None:
        metadata["samples"] = samples
    if timestamp:
        metadata["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    payload = {"metadata": metadata, "rows": dict_rows}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def comparison_csv(rows: list[ComparisonRow]) -> str:
    return _csv_from(COMPARISON_COLUMNS, [_comparison_cells(r) for r in rows])


def comparison_json(
    rows: list[ComparisonRow], seed: int, samples: int, timestamp: bool = True
) -> str:
    return _json_from([_comparison_cells(r) for r in rows], seed, samples, timestamp)


def _closed_form_cells(report: ClosedFormReport) -> dict:
    return _cells(report.params, _closed_form_fields(report))


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
