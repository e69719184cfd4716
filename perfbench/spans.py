"""In-memory span recorder that wraps the public functions of insidermc's
modules from outside, without editing the package.

A span is (name, start, end, parent, thread) plus optional counts taken from
the call's arguments and result.  Wrapping replaces a function in every
``insidermc`` module namespace that holds it, so calls between modules
(``estimate_mean`` -> ``brownian_terminal_block`` -> ``standard_normal_block``
-> ``uniform_block``) nest into a tree.  A span opened on a pool thread with
no open span of its own takes the innermost open span of the thread that
installed the tracer as its parent, so estimator calls with ``chunks > 1``
still own their generation spans.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped functions until :meth:`remove` is called.

    ``targets`` maps a span name to ``(module, attribute, counter)``; the
    counter, when not None, is called as ``counter(args, kwargs, result)``
    after the span has ended and returns a dict of counts for the span.
    """

    def __init__(self, targets: dict):
        self.spans: list[Span] = []
        self._targets = targets
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].ident
            elif self._owner_stack:
                parent = self._owner_stack[-1].ident
            else:
                parent = None
            with self._id_lock:
                ident = self._next_id
                self._next_id += 1
            span = Span(ident, name, parent, threading.get_ident(), 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "insidermc" or key.startswith("insidermc."))
        ]
        for name, (module, attr, counter) in self._targets.items():
            original = getattr(module, attr)
            traced = self._wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, traced)
        return self

    def remove(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children on pool threads can overlap each other, so coverage is the
    length of the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.ident, ()), key=lambda c: c.start):
            lo = max(c.start, reach)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.ident] = s.duration - covered
    return out


def to_records(spans: list[Span], origin: float) -> list[list]:
    """Spans as compact JSON rows: [id, name, parent, thread, start, end, counts]."""
    return [
        [s.ident, s.name, s.parent, s.thread, s.start - origin, s.end - origin, s.counts]
        for s in spans
    ]
