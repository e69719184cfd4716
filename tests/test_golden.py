"""Golden-bytes guard: the deterministic reports at a fixed seed and small n
are frozen by their sha256.  A refactor of the sampling, estimator or
report layers must leave every one of these digests unchanged; a digest
may only move with a deliberate, logged change of stream values or schema.
"""

import hashlib

import pytest

from insidermc import (
    SweepSpec,
    compare_closed_form,
    run_compare,
    run_convergence,
    run_sweep,
    validate_params,
)
from insidermc.report import (
    closed_form_csv,
    closed_form_json,
    comparison_csv,
    comparison_json,
    convergence_csv,
    convergence_json,
)

BASE = validate_params(1, 0.05, 0.1, 0.2, 1)
SHOWCASE = validate_params(1, 0, 0.5, 1, 1)
N = 8192
SEED = 7


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compare():
    rows = [run_compare(BASE, N, SEED)]
    return comparison_csv(rows), comparison_json(rows, SEED, N, timestamp=False)


def _sweep():
    # T = 8000 overflows the closed forms and must stay an invalid row.
    spec = SweepSpec(base=BASE, sweep_field="T", grid=(0.5, 2.0, 8000.0),
                     samples=N, seed=SEED)
    rows = run_sweep(spec)
    return comparison_csv(rows), comparison_json(rows, SEED, N, timestamp=False)


def _convergence():
    rows = run_convergence(SHOWCASE, [1, 4, 16], N, SEED)
    return convergence_csv(rows), convergence_json(rows, SEED, N, timestamp=False)


def _closed_form():
    reports = [compare_closed_form(p) for p in (BASE, SHOWCASE)]
    return closed_form_csv(reports), closed_form_json(reports, timestamp=False)


GOLDEN = {
    "compare": (
        _compare,
        (
            "b3b97a0e1aa4537747b18689ae09ffd3209aafea789516f7103988aba0b0f589",
            "4d830340b45a26aa1028d0dbcdfc346028067354d328b9d34bd454969c92a754",
        ),
    ),
    "sweep": (
        _sweep,
        (
            "66fbce803698eb39579fc6c2202565d88c7a71b77643bd88a89deba282c7437b",
            "c35936a4bd8c9c411ebbb06537f79e65cc53bf2199490bb9db32d90e318abfd5",
        ),
    ),
    "convergence": (
        _convergence,
        (
            "c3159ae0c96547a54353e5c721d0394ceeec479a557f1a0e0a9d31550ed7aa4d",
            "2fa761d746542c3c7f295923d6086f544c4585a52ce251b12952d1b46e00148a",
        ),
    ),
    "closed-form": (
        _closed_form,
        (
            "5a0484b64dfd8b1500b8ba50e6e1e0abbc4e418c7973945cb962a44a74fb97c9",
            "9f2f0cec60a4df3214b130e4f17d531fa74fe8d2f771c598354d74ff9965a22c",
        ),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_digests(name):
    build, (csv_digest, json_digest) = GOLDEN[name]
    csv_text, json_text = build()
    assert sha256(csv_text) == csv_digest
    assert sha256(json_text) == json_digest
