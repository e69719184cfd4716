"""The public surface: every exported name resolves, removed names stay
removed, the closed-form paths run without numpy, and no path loads scipy."""

import ast
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import insidermc
from insidermc import errors

# __main__ runs the CLI on import; it exports nothing.
MODULES = [insidermc] + [
    importlib.import_module(f"insidermc.{info.name}")
    for info in pkgutil.iter_modules(insidermc.__path__)
    if info.name != "__main__"
]

# The honest trader is the insider kernel at an infinite threshold; the
# wealth split that once parametrized it is gone, and its threshold lives in
# market.honest_threshold.  A sweep takes plain arguments, like the other
# report runs.  Every estimate covers draws 0..n-1, so none is merged.  The
# erf forms restated the Phi forms, which the 50-digit oracles check.  An
# Euler path's first bad product decides overflow against clamp in place.
# The inverse CDF is the package's own, so no scipy ufunc is loaded or bound,
# and its tails run in the central piece's size.
REMOVED = (
    "Allocation", "AllocationMismatchError", "honest_optimal_allocation", "SweepSpec",
    "honest_ignores_draws", "merge_estimates",
    "skorokhod_expected_wealth_erf_form", "forward_expected_wealth_erf_form",
    "_overflow_precedes_clamp",
    "_ndtri", "_NDTRI_LOCK", "_load_ndtri", "_ufuncs_ndtri", "_TAIL_PIECE",
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}
# Bull, bear, marginal, and a bull point whose standardized threshold
# a/sqrt(T) = -39.5 lies where erfc(-x/sqrt(2)) underflows.
COLD_POINTS = [(1, 0, 0.5, 1, 1), (1, 0.1, 0.05, 0.2, 2), (1, 0.07, 0.07, 0.2, 1), (1, 0, 40, 1, 1)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
    for name in REMOVED:
        assert not hasattr(module, name)
        assert name not in exported


def _erf_uses(module) -> list[str]:
    """Each ``math.erf``/``math.erfc`` read and each import of erf or erfc
    from math in a module's source."""
    uses = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in ("erf", "erfc")
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            uses.append(f"math.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            uses += [f"from math import {a.name}" for a in node.names if a.name in ("erf", "erfc")]
    return uses


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_only_special_evaluates_erf(module):
    # One home for Phi: a second erfc-based CDF would drift from special's
    # corrected lower tail unnoticed.
    if module.__name__ == "insidermc.special":
        assert set(_erf_uses(module)) == {"math.erf", "math.erfc"}
    else:
        assert _erf_uses(module) == []


# numpy's transcendental ufuncs are dispatched by CPU and may differ in
# their last bits between hosts; the inverse CDF is built without them.
NUMPY_TRANSCENDENTALS = ("log", "log1p", "log2", "exp", "expm1", "power")


def test_special_calls_no_numpy_transcendental():
    # Modelled on the erf check: no np.log, np.exp, ... read in special's
    # source, by attribute or by import.
    tree = ast.parse(Path(insidermc.special.__file__).read_text(encoding="utf-8"))
    uses = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_TRANSCENDENTALS
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    uses += [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
        for alias in node.names if alias.name in NUMPY_TRANSCENDENTALS
    ]
    assert uses == []
    assert "np.frexp" in ast.unparse(tree)  # the check reads the array core's source


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_imports_scipy(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level]
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


def _callers(module, name: str) -> list[str]:
    """The qualified name of the function or method around each call of
    ``name`` in a module's source."""
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    callers.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), [])
    return callers


def test_one_reading_per_trader():
    # A trader becomes a kernel level in Trader.reading alone, so the
    # closed forms, the samplers and the estimators cannot drift apart on
    # it; the estimator branches on the level, never on the trader.
    callers = [(m.__name__, c) for m in MODULES for c in _callers(m, "honest_threshold")]
    assert callers == [("insidermc.market", "Trader.reading")]
    montecarlo = insidermc.montecarlo
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    members = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "Trader"
    ]
    assert members == []


def test_only_the_harness_merges_granules():
    # _stats_over_blocks hands back one merged statistic per leg, so no
    # estimator merges granules of its own.
    callers = [(m.__name__, c) for m in MODULES for c in _callers(m, "_merge_tree")]
    assert callers == [("insidermc.montecarlo", "_stats_over_blocks")]


def test_the_euler_sampler_forms_its_own_product():
    # forward_euler_values bets on its row sums and forms its Euler product
    # inline, in no nested function.
    callers = [(m.__name__, c) for m in MODULES for c in _callers(m, "accumulate")]
    assert callers == [("insidermc.samplers", "forward_euler_values")]


def test_the_trader_kernel_takes_no_callback():
    kernel = inspect.signature(insidermc.samplers._insider_values)
    assert list(kernel.parameters) == ["p", "b_t", "a", "wick"]


# Each module's imports from inside the package.  Only sampling turns
# uniforms into normals: a sampler or the harness that reached past it to
# special would break the fronts' bitwise contract unseen.
PACKAGE_IMPORTS = {
    "insidermc": {"closedform", "errors", "market", "special"},
    "insidermc.cli": {"insidermc", "closedform", "errors", "market", "report", "verify"},
    "insidermc.closedform": {"errors", "market", "special"},
    "insidermc.errors": set(),
    "insidermc.market": {"errors"},
    "insidermc.montecarlo": {"errors", "market", "samplers", "sampling"},
    "insidermc.report": {"insidermc", "closedform", "errors", "market", "montecarlo", "sampling"},
    "insidermc.samplers": {"errors", "market", "sampling"},
    "insidermc.sampling": {"errors", "special"},
    "insidermc.special": {"_inverse_normal_coefficients", "errors"},
    "insidermc._inverse_normal_coefficients": set(),
    "insidermc.verify": {
        "insidermc", "closedform", "market", "montecarlo", "report", "sampling", "special",
    },
}


def _package_imports(module) -> set[str]:
    """The package modules a module's source imports from, ``from . import``
    read as the package itself."""
    return {
        node.module or "insidermc"
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
    }


def test_each_module_imports_only_its_layers():
    assert {m.__name__: _package_imports(m) for m in MODULES} == PACKAGE_IMPORTS


def test_only_sampling_turns_uniforms_into_normals():
    callers = {m.__name__ for m in MODULES if _callers(m, "_inverse_normal_cdf_array")}
    assert callers == {"insidermc.special", "insidermc.sampling"}


def test_sampling_takes_only_the_core_and_phi_from_special():
    # The core owns its scratch, so sampling sizes nothing after special.
    tree = ast.parse(Path(insidermc.sampling.__file__).read_text(encoding="utf-8"))
    names = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "special"
        for alias in node.names
    }
    assert names == {"_inverse_normal_cdf_array", "normal_cdf"}


def test_the_harness_reads_no_workspace_memory():
    # montecarlo hands a worker's Workspace on whole; sampling alone lays it out.
    tree = ast.parse(Path(insidermc.montecarlo.__file__).read_text(encoding="utf-8"))
    reads = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("words", "scratch", "ramp")
    ]
    assert reads == []


def test_every_export_is_its_home_modules_object():
    # A class or function names its home module; the seed and the version
    # live in the package itself, and verify re-exports the seed.
    for name in insidermc.__all__:
        value = getattr(insidermc, name)
        home = sys.modules[value.__module__] if callable(value) else insidermc
        assert getattr(home, name) is value, name
    assert insidermc.verify.DEFAULT_SEED is insidermc.DEFAULT_SEED


def test_dir_covers_the_exports_and_lazy_submodules():
    listed = set(dir(insidermc))
    assert set(insidermc.__all__) <= listed
    assert {"sampling", "samplers", "montecarlo", "report", "verify"} <= listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        insidermc.no_such_name  # noqa: B018


def test_every_public_package_attribute_is_exported():
    public = [
        name for name, value in vars(insidermc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert [name for name in public if name not in insidermc.__all__] == []


def _pyproject_project() -> str:
    # Read as text: tomllib needs Python 3.11, and the package supports 3.10.
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    return text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]


def test_pyproject_version_is_package_version():
    # Every JSON report prints __version__ as tool_version.
    project = _pyproject_project()
    assert re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.M) == [insidermc.__version__]


def test_numpy_is_the_only_runtime_dependency():
    dependencies = _pyproject_project().split("dependencies = [", 1)[1].split("]", 1)[0]
    assert re.findall(r'"([^"]*)"', dependencies) == ["numpy>=1.24"]


def _child_stdout(code: str) -> str:
    """What a fresh interpreter prints after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60, check=True,
    )
    return proc.stdout


def _scipy_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter has imported scipy after running code."""
    stdout = _child_stdout(f"{code}\nimport sys; print('scipy' in sys.modules)")
    return {"True\n": True, "False\n": False}[stdout]


def test_closed_forms_run_without_scipy():
    deep = insidermc.validate_params(*COLD_POINTS[-1])
    assert insidermc.indicator_threshold(deep) / math.sqrt(deep.T) < -38
    assert not _scipy_loaded_after(
        "import insidermc\n"
        "from insidermc.report import closed_form_csv\n"
        f"reports = [insidermc.compare_closed_form(insidermc.validate_params(*raw)) "
        f"for raw in {COLD_POINTS!r}]\n"
        "assert all(r.ordering_pass for r in reports)\n"
        "closed_form_csv(reports)"
    )


def test_closed_forms_run_without_numpy():
    # numpy set to None in sys.modules makes any import of it raise.
    stdout = _child_stdout(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import insidermc\n"
        "from insidermc.report import closed_form_csv, closed_form_json\n"
        f"reports = [insidermc.compare_closed_form(insidermc.validate_params(*raw)) "
        f"for raw in {COLD_POINTS!r}]\n"
        "assert all(r.ordering_pass for r in reports)\n"
        "print(closed_form_csv(reports).count('\\n'), closed_form_json(reports)[:1])\n"
        "try:\n"
        "    insidermc.estimate_mean(insidermc.Trader.FORWARD_INSIDER, reports[0].params, 4096, 1)\n"
        "except ImportError as exc:\n"
        "    print(exc.name)\n"
    )
    assert stdout.split() == [str(len(COLD_POINTS) + 1), "{", "numpy"]


def test_lazy_submodules_resolve_after_a_bare_import():
    stdout = _child_stdout(
        "import sys, types\n"
        "import insidermc\n"
        "names = ['montecarlo', 'sampling', 'samplers', 'report', 'verify']\n"
        "print([f'insidermc.{name}' in sys.modules for name in names])\n"
        "print([isinstance(getattr(insidermc, name), types.ModuleType) for name in names])\n"
        "print(insidermc.montecarlo.estimate_mean is insidermc.estimate_mean)\n"
    )
    assert stdout.splitlines() == [str([False] * 5), str([True] * 5), "True"]


@pytest.mark.parametrize("draw", [
    "insidermc.estimate_mean(insidermc.Trader.FORWARD_INSIDER, p, 1 << 17, 1, 1)",
    "insidermc.estimate_mean(insidermc.Trader.FORWARD_INSIDER, p, 1 << 17, 1, 2)",
    "insidermc.estimate_euler_mean(p, 16, 4096, 1)",
    "insidermc.skorokhod_factorized_estimate(p, insidermc.RngStream(1), 4096)",
], ids=["estimate-chunks-1", "estimate-chunks-2", "euler-level", "factorized"])
def test_no_scipy_module_loads_after_a_first_estimate(draw):
    stdout = _child_stdout(
        "import sys\n"
        "import insidermc\n"
        "p = insidermc.validate_params(1, 0, 0.5, 1, 1)\n"
        f"{draw}\n"
        "print('numpy' in sys.modules, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    assert stdout.splitlines() == ["True []"]


def test_the_pool_modules_load_only_with_the_pool():
    # multiprocessing and concurrent.futures are imported where the pool is
    # made, so the import and a one-worker estimate stay without them.
    stdout = _child_stdout(
        "import sys\n"
        "def pool_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')]\n"
        "import insidermc\n"
        "print(pool_modules())\n"
        "p = insidermc.validate_params(1, 0, 0.5, 1, 1)\n"
        "insidermc.estimate_mean(insidermc.Trader.FORWARD_INSIDER, p, 1 << 18, 1, 1)\n"
        "insidermc.estimate_euler_mean(p, 16, 1 << 14, 1)\n"
        "print(pool_modules())\n"
    )
    assert stdout.splitlines() == ["[]", "[]"]


def _error_classes():
    # _FieldError states no requirement, so only its subclasses are raised.
    return [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == errors.__name__ and value is not errors._FieldError
    ]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # Errors raised in a pool process reach the caller pickled.
    if issubclass(cls, errors._FieldError):
        error = cls("sigma", -0.5)
    else:
        error = cls("a message")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)
    if issubclass(cls, errors._FieldError):
        assert (copy.field, copy.value) == ("sigma", -0.5)


def test_a_not_finite_error_pickles_its_nan():
    copy = pickle.loads(pickle.dumps(errors.NotFiniteError("T", math.nan)))
    assert (type(copy), str(copy), copy.field) == (
        errors.NotFiniteError, "T must be finite, got nan", "T"
    )
    assert math.isnan(copy.value)


@pytest.mark.parametrize("args", [["closed-form"], ["--help"]], ids=" ".join)
def test_cli_cold_paths_import_no_scipy(args):
    # Nor numpy: only the commands that draw load it.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "insidermc", *args],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    ]
    assert "insidermc.closedform" in imported
    assert [name for name in imported if name.split(".")[0] in ("scipy", "numpy")] == []
