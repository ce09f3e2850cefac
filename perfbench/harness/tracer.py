"""In-memory span tracer with one span stack per thread.

Spans are recorded around calls into the program from the harness's own
files: a wrapper replaces a bound method on a live object (or a function
as bound in a module) and records ``(name, start, end, parent)``.  Each
thread nests its own spans, so the serving worker and the request
generator never adopt each other's spans as children.

Self time is a span's duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    """One recorded call.  A tuple of atomic fields, so the garbage
    collector stops tracking it and a long trace adds no collection work
    to the run it measures."""

    span_id: int
    parent_id: int | None
    name: str
    thread: int
    start: float
    end: float
    #: Rows (batch size) the call worked on, when the wrapper knows it.
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id:
            span.duration - _covered(span.start, span.end, children[span.span_id])
        for span in spans
    }


@dataclass
class Tracer:
    """Collects spans until the run ends; nothing is written while running."""

    spans: list[Span] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str, float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        """Start a span on this thread; it parents spans until closed."""
        self._stack().append((next(self._ids), name, perf_counter()))

    def close(self, rows: int = 0) -> None:
        """End the innermost open span of this thread."""
        end = perf_counter()
        stack = self._stack()
        span_id, name, start = stack.pop()
        parent = stack[-1][0] if stack else None
        self.spans.append(
            Span(span_id, parent, name, threading.get_ident(), start, end, rows)
        )

    def top(self) -> str | None:
        """Name of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def wrap(self, name: str, fn, rows_of=None):
        """``fn`` recorded as span ``name``; ``rows_of(args)`` gives its rows."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rows_of(args) if rows_of is not None else 0)

        traced.__wrapped__ = fn
        return traced


def first_rows(args) -> int:
    """Rows of a call whose first positional argument is a batch."""
    return int(args[0].shape[0])


def second_rows(args) -> int:
    """Rows of a call whose second positional argument is a batch."""
    return int(args[1].shape[0])


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        had_own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
