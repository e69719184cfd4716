"""The public surface: every exported name resolves, and removed names stay
removed."""

import importlib
import pkgutil

import pytest

import insidermc

# __main__ runs the CLI on import; it exports nothing.
MODULES = [insidermc] + [
    importlib.import_module(f"insidermc.{info.name}")
    for info in pkgutil.iter_modules(insidermc.__path__)
    if info.name != "__main__"
]

# The honest trader is the insider kernel at an infinite threshold; the
# wealth split that once parametrized it is gone.  A sweep takes plain
# arguments, like the other report runs.
REMOVED = ("Allocation", "AllocationMismatchError", "honest_optimal_allocation", "SweepSpec")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
    for name in REMOVED:
        assert not hasattr(module, name)
        assert name not in exported
