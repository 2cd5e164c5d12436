"""Timing spans recorded around calls into the program's public functions.

The benchmark does not edit the program. For one traced pass it replaces
a function with a timing wrapper at the place where callers look it up (a
module attribute or a class attribute) and puts the original back when the
pass ends. Spans are kept in memory as (name, start, end, parent) tuples;
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

#: (owner, attribute, span name, counter); the counter, when given, is
#: called as counter(tracer, result, *args, **kwargs) after each call.
Target = tuple[object, str, str, Callable | None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._phase = ""

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, index, parent, start)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Root span whose descendants and counts are summarised together."""
        if self._stack:
            raise RuntimeError("a phase must be a root span")
        self._phase = name
        self.counts.setdefault(name, {})
        try:
            with self.span(name):
                yield
        finally:
            self._phase = ""

    def count(self, key: str, amount: float) -> None:
        """Add to ``key`` in the open phase; calls outside a phase are ignored."""
        if self._phase:
            counts = self.counts[self._phase]
            counts[key] = counts.get(key, 0) + amount

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)
            if counter is not None:
                counter(self, result, *args, **kwargs)
            return result

        return timed

    @contextmanager
    def patched(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        """Wrap every target for the length of the block, then restore it."""
        saved: list[tuple[object, str, object]] = []
        try:
            for owner, attr, name, counter in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class Summary:
    """Per-name totals and counts over the spans below one phase span."""

    def __init__(self, tracer: Tracer, root: str) -> None:
        spans = tracer.spans
        self.counts = tracer.counts.get(root, {})
        if any(s is None for s in spans):
            raise RuntimeError("summary taken while a span is still open")
        ancestor = []
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            ancestor.append(i if parent < 0 else ancestor[parent])
            if parent >= 0:
                child_time[parent] += end - start
        roots = [i for i, s in enumerate(spans) if s[3] < 0 and s[0] == root]
        if len(roots) != 1:
            raise RuntimeError(f"expected one root span {root!r}, found {len(roots)}")
        self.root = roots[0]
        self.wall = spans[self.root][2] - spans[self.root][1]
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._within: dict[tuple[str, str], float] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if ancestor[i] != self.root or i == self.root:
                continue
            duration = end - start
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child_time[i]
            key = (name, spans[parent][0])
            self._within[key] = self._within.get(key, 0.0) + duration
        # Summed duration of the root's children: the part of the root's
        # wall time that some layer accounts for.
        self.covered = child_time[self.root]

    def within(self, name: str, parent: str) -> float:
        """Summed duration of ``name`` spans whose direct parent is ``parent``."""
        return self._within.get((name, parent), 0.0)
