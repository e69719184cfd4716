"""The domain contract over a fixed seeded draw of parameter points.

Every point that ``validate_params`` accepts must give a row, an invalid row
or a documented error, and never a zero standard error from a sample that
varies.  Per point:

- the closed forms are finite, or raise ``WealthOverflowError``;
- at a bull or bear point whose closed forms are finite, the paper's
  ordering holds: ``ordering_pass`` is true;
- ``run_compare`` returns a row with finite z's, or raises a
  ``ParameterError`` or ``WealthOverflowError``;
- ``run_sweep`` over the point returns that row, or marks it invalid,
  instead of aborting;
- no warning is emitted;
- an estimate whose sample varies has a standard error above 0.

The known failures are sorted into classes, each pinned by a strict xfail
that names the ROADMAP item that mends it; a fix flips its pin.  Anything
outside those classes fails the plain test.
"""

import math
import random
import re
import warnings
from dataclasses import dataclass

import pytest

from insidermc import (
    DegenerateEstimateError,
    ParameterError,
    Regime,
    RngStream,
    Trader,
    WealthOverflowError,
    compare_closed_form,
    derive_seed,
    estimate_mean,
    run_compare,
    run_sweep,
    validate_params,
)
from insidermc.samplers import forward_insider_values, honest_values, skorokhod_unbiased_values
from insidermc.sampling import brownian_terminal_block

N = 4096
SEED = 1
# run_compare's estimators, in the order of their child-seed ordinals.
ESTIMATORS = [
    (Trader.HONEST_OPTIMAL, honest_values, "honest_optimal"),
    (Trader.SKOROKHOD_UNBIASED, skorokhod_unbiased_values, "skorokhod"),
    (Trader.FORWARD_INSIDER, forward_insider_values, "forward"),
]
# numpy's overflow warnings from squaring and summing the deviations of M2.
M2_OVERFLOW = re.compile(r"overflow encountered in (square|reduce)")


def _draw(count: int, seed: int) -> list[tuple[float, ...]]:
    """Points spread over the whole domain: M = 10^U(-300, 300), rho 0 or
    10^U(-8, 3), mu = rho or 10^U(-8, 3), sigma = 10^U(-8, 3) and
    T = 10^U(-6, 3)."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        M = 10 ** rng.uniform(-300, 300)
        rho = rng.choice([0.0, 10 ** rng.uniform(-8, 3)])
        mu = rng.choice([rho, 10 ** rng.uniform(-8, 3)])
        sigma = 10 ** rng.uniform(-8, 3)
        T = 10 ** rng.uniform(-6, 3)
        points.append((M, rho, mu, sigma, T))
    return points


POINTS = _draw(400, seed=5)

# Each known class, with the ROADMAP item that mends it.
KNOWN = {
    "m2-overflow": "ROADMAP item 8: M2 squares unscaled deviations, so it overflows, "
    "with numpy's warning, long before the standard error does",
    "m2-underflow": "ROADMAP item 8: deviations on the scale of a tiny M square to 0, "
    "so a sample that varies gets a standard error of exactly 0",
    "never-drawn": "ROADMAP item 2: a branch that no draw reached leaves a constant "
    "sample off its closed form, so its z-score raises DegenerateEstimateError",
}


@dataclass(frozen=True)
class Violation:
    kind: str  # a KNOWN class, or "contract" for anything else
    point: tuple
    what: str


def _estimates(p, report) -> list[tuple[str, object, bool]]:
    """(trader, estimate or None on overflow, whether the sample varies) for
    each of run_compare's estimators, on its own draws; a b-space sampler's
    values are bitwise those the estimate stats."""
    out = []
    for k, (trader, sampler, field) in enumerate(ESTIMATORS):
        seed = derive_seed(SEED, k)
        try:
            est = estimate_mean(trader, p, N, seed)
        except WealthOverflowError:
            out.append((field, None, False))
            continue
        values = sampler(p, brownian_terminal_block(RngStream(seed), 0, N, p.T))
        out.append((field, est, bool(values.min() < values.max())))
    return out


def _check(raw: tuple) -> tuple[list[Violation], bool]:
    """The point's violations, and whether run_compare gave a row."""
    p = validate_params(*raw)
    found = []

    def add(kind: str, what: str) -> None:
        found.append(Violation(kind, raw, what))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = compare_closed_form(p)
            if not all(map(math.isfinite, (report.honest_optimal, report.skorokhod,
                                           report.forward))):
                add("contract", f"non-finite closed form {report}")
            elif report.regime is not Regime.MARGINAL and not report.ordering_pass:
                add("contract", f"{report.regime.value} ordering_pass false: {report}")
        except WealthOverflowError:
            report = None
        estimates = _estimates(p, report) if report else []
        try:
            row = run_compare(p, N, SEED)
            if not all(map(math.isfinite, (row.z_honest, row.z_sk, row.z_rs))):
                add("contract", f"non-finite z in {row}")
        except (ParameterError, WealthOverflowError):
            row = None
        except DegenerateEstimateError as exc:
            row = None
            # The first estimator whose z-score had no spread to divide by.
            varies = next((v for field, est, v in estimates if est and est.stderr == 0.0
                           and est.mean != getattr(report, field)), None)
            kind = {True: "m2-underflow", False: "never-drawn", None: "contract"}[varies]
            add(kind, str(exc))
        try:
            (swept,) = run_sweep(p, "sigma", (p.sigma,), N, SEED)
            if swept != row and not (row is None and swept.regime == "invalid"):
                add("contract", f"sweep row {swept} differs from the compare row {row}")
        except Exception as exc:  # noqa: BLE001 - any abort breaks the contract
            add("contract", f"sweep aborted: {exc!r}")
    for field, est, varies in estimates:
        if est and varies and est.stderr == 0.0:
            add("m2-underflow", f"{field}: a varying sample with stderr 0")
    for w in caught:
        overflow = issubclass(w.category, RuntimeWarning) and M2_OVERFLOW.match(str(w.message))
        add("m2-overflow" if overflow else "contract", f"{w.category.__name__}: {w.message}")
    return found, row is not None


@pytest.fixture(scope="module")
def checked() -> list[tuple[list[Violation], bool]]:
    return [_check(raw) for raw in POINTS]


@pytest.fixture(scope="module")
def violations(checked) -> list[Violation]:
    return [v for found, _ in checked for v in found]


def test_contract_holds_outside_the_known_classes(checked, violations):
    # A third of the points give rows, so the contract is not met by
    # errors alone.
    assert sum(gave_row for _, gave_row in checked) >= len(POINTS) // 3
    assert [v for v in violations if v.kind == "contract"] == []


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(strict=True, reason=reason))
    for kind, reason in KNOWN.items()
])
def test_known_failure_class_is_mended(violations, kind):
    assert [v for v in violations if v.kind == kind] == []
