"""Fixtures shared by the test modules."""

import os

import pytest

import insidermc.montecarlo as montecarlo


@pytest.fixture(scope="session", autouse=True)
def estimator_pool():
    """Start the estimators' process pool before any test patches a module.

    The pool's processes are forked copies of this one and serve every
    later pooled call, so a patch in place when they fork would stay in
    them for the whole session."""
    montecarlo._pool(max(2, os.cpu_count() or 1))


class _InlinePool:
    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Record the worker count of each call that hands slabs to the pool,
    with eight cores, and run the slabs inline in this process, where a
    test's patches reach them."""
    handed = []

    def pool(workers):
        handed.append(workers)
        return _InlinePool()

    monkeypatch.setattr(montecarlo, "_pool", pool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    return handed
