"""Built-in verification battery.

Ten numbered checks cover the closed forms against independently computed
oracle values, the ordering theorems over random parameter draws, Monte
Carlo agreement of every sampler with its closed form, the Skorokhod dead
zone, Euler weak convergence, worker-count determinism and the special
functions.  ``run_verify`` executes all of them and reports one line per
check; the pytest acceptance module asserts the same results.  Criteria 5-7
check the ``ComparisonRow``s that ``insidermc compare`` emits, one
``run_compare`` row per grid point.

Oracle constants below were computed with 50-digit arithmetic (mpmath)
before the library was written and are frozen here; the battery never
trusts the code under test to produce its own expected values.

Criterion 8 (Euler weak convergence) is seed-sensitive.  At 10^6 paths a
level's standard error (about 1.9e-3) exceeds the true bias at 256 steps
(about 6.8e-4), so "monotone biases with a 16->256 ratio above 4" is close
to a coin flip: with correct code seed 42 passes (ratio 97.5), but seeds 3,
6, 7, 8 and 10 of 1-10 fail (at seed 3 the biases read 9.92e-03 -> 4.57e-04
-> 2.70e-03).  A level more than 3 SE off its exact mean is evidence of a
defect; ``tests/test_acceptance.py`` freezes those means (Isserlis'
theorem, mpmath) and checks c08's levels against them.  The criterion keeps
its seed, sample count and bounds.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import DEFAULT_SEED
from .closedform import compare_closed_form
from .market import MarketParams, validate_params
from .montecarlo import estimate_euler_mean, skorokhod_factorized_estimate
from .report import comparison_csv, comparison_json, run_compare, run_convergence
from .sampling import RngStream, derive_seed, uniform_block
from .special import erf, inverse_normal_cdf, normal_cdf

__all__ = ["CriterionResult", "VerifySummary", "run_verify", "DEFAULT_SEED", "GRID"]

# mpmath, 50 digits: M e^{mu T}; M(Phi(0) + Phi(0) e^{mu T}); 0.5 + Phi(1) e^{0.5}.
ORACLE_HONEST = 1.6487212707001282
ORACLE_SKOROKHOD = 1.324360635350064
ORACLE_FORWARD = 1.8871429788350047

# mpmath: Phi(1) - Phi(0), the dead-zone mass at the showcase point.
ORACLE_DEAD_ZONE = 0.3413447460685429

# mpmath, 50 digits: (x, erf(x)) on 20 evenly spaced points in [-6, 6].
ERF_ORACLE_POINTS = [
    (-6.0, -1.0),
    (-5.368421052631579, -0.9999999999999685),
    (-4.7368421052631575, -0.9999999999790015),
    (-4.105263157894737, -0.9999999935909565),
    (-3.473684210526316, -0.9999991009198538),
    (-2.8421052631578947, -0.9999416395441717),
    (-2.210526315789474, -0.9982289260362425),
    (-1.5789473684210527, -0.9744489969369156),
    (-0.9473684210526315, -0.8196835331902045),
    (-0.3157894736842105, -0.3448315956445969),
    (0.3157894736842105, 0.3448315956445969),
    (0.9473684210526315, 0.8196835331902045),
    (1.5789473684210527, 0.9744489969369156),
    (2.210526315789474, 0.9982289260362425),
    (2.8421052631578947, 0.9999416395441717),
    (3.473684210526316, 0.9999991009198538),
    (4.105263157894737, 0.9999999935909565),
    (4.7368421052631575, 0.9999999999790015),
    (5.368421052631579, 0.9999999999999685),
    (6.0, 1.0),
]

# Fixed 10-point (M, rho, mu, sigma, T) grid spanning all three regimes.
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
# Grid point 0 is the showcase point (M, rho, mu, sigma, T) = (1, 0, 0.5, 1, 1).
_SHOWCASE = MarketParams(*GRID[0])

_N_MC = 1_000_000
_N_DRAWS = 1000

# Child-seed ordinals: 0..29 grid estimators, then the blocks below.
_ORD_RETRY = 40
_ORD_FACTORIZED = 80
_ORD_EULER = 90
_ORD_DRAWS = 100


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float = field(default=0.0, compare=False)  # wall time, never rendered

    def __post_init__(self):
        # A numpy comparison yields numpy.bool, which json.dumps refuses.
        object.__setattr__(self, "passed", bool(self.passed))

    def line(self, total: int) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.index:2d}/{total}] {status}  {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerifySummary:
    seed: int
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [r.line(len(self.results)) for r in self.results]
        n_ok = sum(r.passed for r in self.results)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"VERIFY: {verdict} ({n_ok}/{len(self.results)} criteria, seed={self.seed})")
        return "\n".join(lines) + "\n"


def _params_from_uniforms(seed: int, regime: str) -> list[MarketParams]:
    """Archived random parameter draws: M log-uniform in [0.1, 10], rates
    uniform with the requested regime, sigma in [0.05, 1], T in [0.1, 10]."""
    regime_ordinal = {"bull": 0, "bear": 1, "marginal": 2}[regime]
    u = [
        uniform_block(
            RngStream(derive_seed(seed, _ORD_DRAWS + 10 * k + regime_ordinal)), 0, _N_DRAWS
        )
        for k in range(5)
    ]
    out = []
    for i in range(_N_DRAWS):
        M = 0.1 * 100.0 ** u[0][i]
        if regime == "bull":
            rho = 0.2 * u[1][i]
            mu = rho + 0.5 * u[2][i]
        elif regime == "bear":
            mu = 0.2 * u[1][i]
            rho = mu + 0.5 * u[2][i]
        else:
            rho = mu = 0.2 * u[1][i]
        sigma = 0.05 + 0.95 * u[3][i]
        T = 0.1 + 9.9 * u[4][i]
        out.append(validate_params(M, rho, mu, sigma, T))
    return out


def _c01_closed_form_triple() -> CriterionResult:
    report = compare_closed_form(_SHOWCASE)
    errs = (
        abs(report.honest_optimal - ORACLE_HONEST),
        abs(report.skorokhod - ORACLE_SKOROKHOD),
        abs(report.forward - ORACLE_FORWARD),
    )
    return CriterionResult(
        1,
        "closed-form-triple",
        max(errs) <= 1e-9,
        f"max abs error vs 50-digit oracle {max(errs):.3e} (tol 1e-9)",
    )


def _ordering_criterion(index: int, name: str, regime: str, seed: int) -> CriterionResult:
    # Strictness comes from the report's cancellation-free margin flags; the
    # evaluated expectations are additionally required to respect the
    # ordering up to a few ulps, which catches gross formula errors that the
    # margin algebra alone would not see.
    ulp_slack = 1.0 + 8.0 * np.finfo(float).eps
    violations = 0
    for p in _params_from_uniforms(seed, regime):
        report = compare_closed_form(p)
        if regime == "marginal":
            ok = (
                abs(report.skorokhod - report.honest_optimal)
                <= 1e-12 * report.honest_optimal
                and _marginal_forward_ok(p, report.forward)
                and report.forward > report.honest_optimal
            )
        else:
            ok = (
                report.ordering_pass
                and report.skorokhod <= report.honest_optimal * ulp_slack
                and report.honest_optimal <= report.forward * ulp_slack
            )
        violations += not ok
    return CriterionResult(
        index,
        name,
        violations == 0,
        f"{_N_DRAWS - violations}/{_N_DRAWS} draws satisfy the ordering",
    )


def _marginal_forward_ok(p: MarketParams, forward: float) -> bool:
    reference = p.M * (1.0 + erf(p.sigma * math.sqrt(p.T) / (2.0 * math.sqrt(2.0)))) * math.exp(
        p.rho * p.T
    )
    return abs(forward - reference) <= 1e-12 * reference


def _grid_rows(seed: int, chunks: int, ordinal_base: int):
    """The comparison rows of the grid; point i runs on ordinals
    ordinal_base + 3i .. ordinal_base + 3i + 2."""
    return [
        run_compare(validate_params(*raw), _N_MC, seed, chunks, ordinal_base + 3 * i)
        for i, raw in enumerate(GRID)
    ]


def _count_exceedances(rows) -> tuple[int, float]:
    zs = [abs(z) for row in rows for z in (row.z_honest, row.z_sk, row.z_rs)]
    return sum(z > 3.0 for z in zs), max(zs)


def _c05_mc_agreement(seed: int, chunks: int):
    rows = _grid_rows(seed, chunks, 0)
    exceed, worst = _count_exceedances(rows)
    if exceed == 0:
        passed = True
        detail = f"30/30 estimators within 3 stderr (max |z| = {worst:.2f})"
    elif exceed == 1:
        # Calibration policy: one exceedance earns one fresh archived seed;
        # a second exceedance fails.
        retry = _grid_rows(seed, chunks, _ORD_RETRY)
        exceed2, worst2 = _count_exceedances(retry)
        passed = exceed2 == 0
        detail = (
            f"1/30 exceeded on first seed (max |z| = {worst:.2f}); "
            f"retry max |z| = {worst2:.2f}, exceedances {exceed2}"
        )
        if passed:
            rows = retry
    else:
        passed = False
        detail = f"{exceed}/30 estimators beyond 3 stderr (max |z| = {worst:.2f})"
    result = CriterionResult(5, "mc-agreement", passed, detail)
    return result, rows


def _c06_factorized(seed: int, chunks: int, rows) -> CriterionResult:
    worst = 0.0
    ok = True
    for i, row in enumerate(rows):
        stream = RngStream(derive_seed(seed, _ORD_FACTORIZED + i))
        factorized = skorokhod_factorized_estimate(row.params, stream, _N_MC, chunks)
        gap = abs(factorized.mean - row.mc_sk)
        bound = 3.0 * math.hypot(factorized.stderr, row.mc_sk_se)
        worst = max(worst, gap / bound if bound else math.inf)
        ok = ok and gap <= bound
    return CriterionResult(
        6,
        "skorokhod-estimator-agreement",
        ok,
        f"translation vs factorized, worst gap {worst:.2f} of 3-sigma budget",
    )


def _c07_dead_zone(rows) -> CriterionResult:
    # Grid point 0 is the showcase point.
    zero_fraction = rows[0].zero_fraction
    q = ORACLE_DEAD_ZONE
    bound = 3.0 * math.sqrt(q * (1.0 - q) / _N_MC)
    gap = abs(zero_fraction - q)
    return CriterionResult(
        7,
        "skorokhod-dead-zone",
        gap <= bound,
        f"zero fraction {zero_fraction:.6f} vs {q:.6f} (gap {gap:.2e}, tol {bound:.2e})",
    )


def _c08_euler(seed: int, chunks: int) -> CriterionResult:
    rows = run_convergence(
        _SHOWCASE, [16, 64, 256], _N_MC, derive_seed(seed, _ORD_EULER), chunks
    )
    biases = [row.abs_bias for row in rows]
    clamps = [row.clamp_count for row in rows]
    nonincreasing = biases[0] >= biases[1] >= biases[2]
    ratio = biases[0] / biases[2] if biases[2] > 0 else math.inf
    passed = nonincreasing and ratio > 4.0 and clamps[2] < 10
    return CriterionResult(
        8,
        "euler-weak-convergence",
        passed,
        f"bias {biases[0]:.2e} -> {biases[1]:.2e} -> {biases[2]:.2e}, "
        f"16->256 ratio {ratio:.1f}, clamps@256 {clamps[2]}",
    )


def _c09_determinism(seed: int) -> CriterionResult:
    p = validate_params(1.0, 0.05, 0.1, 0.2, 1.0)
    # Terminal estimates at 2^18 draws are four tasks, so chunks=8 runs them
    # in pool processes; at 2^16 they would be one task, run inline.  Euler's
    # 64 draws a path make 2^16 paths 16 tasks already.
    n = 1 << 18
    row1 = run_compare(p, n, seed, chunks=1)
    row8 = run_compare(p, n, seed, chunks=8)
    csv_ok = comparison_csv([row1]) == comparison_csv([row8])
    json_ok = comparison_json([row1], seed, n, timestamp=False) == comparison_json(
        [row8], seed, n, timestamp=False
    )
    e1 = estimate_euler_mean(_SHOWCASE, 64, 1 << 16, seed, chunks=1)
    e8 = estimate_euler_mean(_SHOWCASE, 64, 1 << 16, seed, chunks=8)
    euler_ok = e1 == e8
    f1 = skorokhod_factorized_estimate(_SHOWCASE, RngStream(seed), n, chunks=1)
    f8 = skorokhod_factorized_estimate(_SHOWCASE, RngStream(seed), n, chunks=8)
    fact_ok = f1 == f8
    passed = csv_ok and json_ok and euler_ok and fact_ok
    return CriterionResult(
        9,
        "worker-determinism",
        passed,
        "1 vs 8 workers byte-identical (csv "
        f"{csv_ok}, json {json_ok}, euler {euler_ok}, factorized {fact_ok})",
    )


def _c10_special_functions() -> CriterionResult:
    worst_erf = max(abs(erf(x) - expected) for x, expected in ERF_ORACLE_POINTS)
    # Quantile round trip over magnitudes up to 8.  Beyond |x| ~ 6.1 the
    # double nearest Phi(x) sits within one ulp of 1 and the composition is
    # information-theoretically stuck at ulp(1)/pdf(x) (0.022 at x = 8), so
    # those magnitudes are routed through the lower tail, whose double
    # representation keeps full relative precision and which exercises the
    # same folded code path.
    worst_rt = 0.0
    for x in np.arange(-8.0, 8.0 + 1e-9, 0.01):
        if x <= 6.0:
            worst_rt = max(worst_rt, abs(inverse_normal_cdf(normal_cdf(x)) - x))
        else:
            worst_rt = max(worst_rt, abs(inverse_normal_cdf(normal_cdf(-x)) + x))
    passed = worst_erf <= 1e-12 and worst_rt <= 1e-8
    return CriterionResult(
        10,
        "special-functions",
        passed,
        f"erf max abs error {worst_erf:.2e} (tol 1e-12), "
        f"round-trip max error {worst_rt:.2e} (tol 1e-8)",
    )


def _criteria(seed: int, chunks: int):
    yield _c01_closed_form_triple()
    yield _ordering_criterion(2, "bull-ordering", "bull", seed)
    yield _ordering_criterion(3, "bear-ordering", "bear", seed)
    yield _ordering_criterion(4, "marginal-identities", "marginal", seed)
    c05, rows = _c05_mc_agreement(seed, chunks)
    yield c05
    yield _c06_factorized(seed, chunks, rows)
    yield _c07_dead_zone(rows)
    yield _c08_euler(seed, chunks)
    yield _c09_determinism(seed)
    yield _c10_special_functions()


def run_verify(seed: int = DEFAULT_SEED, chunks: int = os.cpu_count() or 1) -> VerifySummary:
    """Run the acceptance battery under an archived seed, timing each criterion.
    ``chunks`` defaults to every core; the results do not depend on it."""
    results = []
    t0 = time.perf_counter()
    for result in _criteria(seed, chunks):
        results.append(replace(result, seconds=time.perf_counter() - t0))
        t0 = time.perf_counter()
    return VerifySummary(seed=seed, results=tuple(results))
