"""The demos run against the public API and report no failure.

``euler_convergence.py`` is left out: even ``--quick`` draws 6.7e7 normals,
and ``test_report.py`` covers the ``run_convergence`` calls it makes.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# What each demo prints where a check of its own fails.
FAILURE_MARKERS = ("VIOLATED", "OUT OF BAND", "[!]")


@pytest.mark.parametrize(
    "name", ["closed_form_tour.py", "skorokhod_dead_zone.py", "monte_carlo_agreement.py"]
)
def test_demo_runs_to_done_without_failure_markers(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "done."
    assert [marker for marker in FAILURE_MARKERS if marker in out] == []
