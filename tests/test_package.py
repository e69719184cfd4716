"""The public surface: every exported name resolves, and removed names stay
removed."""

import importlib
import pkgutil
import types

import pytest

import insidermc

# __main__ runs the CLI on import; it exports nothing.
MODULES = [insidermc] + [
    importlib.import_module(f"insidermc.{info.name}")
    for info in pkgutil.iter_modules(insidermc.__path__)
    if info.name != "__main__"
]

# The honest trader is the insider kernel at an infinite threshold; the
# wealth split that once parametrized it is gone, and its threshold lives in
# market.honest_threshold.  A sweep takes plain arguments, like the other
# report runs.  Every estimate covers draws 0..n-1, so none is merged.
REMOVED = (
    "Allocation", "AllocationMismatchError", "honest_optimal_allocation", "SweepSpec",
    "honest_ignores_draws", "merge_estimates",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
    for name in REMOVED:
        assert not hasattr(module, name)
        assert name not in exported


def test_every_public_package_attribute_is_exported():
    public = [
        name for name, value in vars(insidermc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert [name for name in public if name not in insidermc.__all__] == []
