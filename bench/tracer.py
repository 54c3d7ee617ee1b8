"""Spans around the package's public functions, installed from outside it.

`Patches` swaps an attribute for a wrapper and puts every original back on
exit.  `Tracer` builds timing wrappers: each call becomes a span with a
name, start, end and parent span (the innermost traced call open on the
same thread).  Per (name, parent) it keeps the call count, the total time
and the time covered by child spans, so a layer's self time is its total
minus its children.  Each thread writes its own tables; they are merged
when read, so the hot path takes no lock.  The first `keep_spans` spans are
also kept whole, to be written out with the trace.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable

_clock = time.perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr by make(original function); keeps classmethods classmethods."""
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, current))
        if isinstance(current, classmethod):
            setattr(owner, attr, classmethod(make(current.__func__)))
        else:
            setattr(owner, attr, make(current))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self, keep_spans: int = 20_000) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self._extras: list[dict] = []
        self._register = threading.Lock()
        self.keep_spans = keep_spans
        self.spans: list[tuple[str, str | None, int, float, float]] = []
        self.origin = _clock()
        self.in_round = False  # set by the harness while a coordinator round runs

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.table = defaultdict(lambda: [0, 0.0, 0.0])
            loc.extra = defaultdict(float)
            with self._register:
                self._tables.append(loc.table)
                self._extras.append(loc.extra)
        return loc

    def add(self, key: str, amount: float) -> None:
        """Count something at a layer boundary (bytes, results, calls)."""
        self._state().extra[key] += amount

    def timed(self, name: str, note: Callable | None = None) -> Callable[[Callable], Callable]:
        """Wrapper factory: time every call as a span called `name`.

        `note(tracer, args, result)` runs after a call returns, to count what
        the call did.
        """

        def make(fn: Callable) -> Callable:
            def span(*args, **kwargs):
                loc = self._state()
                stack = loc.stack
                parent = stack[-1][0] if stack else None
                frame = [name, 0.0]
                stack.append(frame)
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = _clock()
                    stack.pop()
                    took = end - start
                    if stack:
                        stack[-1][1] += took
                    row = loc.table[(name, parent)]
                    row[0] += 1
                    row[1] += took
                    row[2] += frame[1]
                    if len(self.spans) < self.keep_spans:
                        self.spans.append((name, parent, threading.get_ident(),
                                           start - self.origin, end - self.origin))
                if note is not None:
                    note(self, args, result)
                return result

            span.__wrapped__ = fn
            return span

        return make

    def table(self) -> dict[tuple[str, str | None], list]:
        merged: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for t in list(self._tables):
            for key, (count, total, child) in list(t.items()):
                row = merged[key]
                row[0] += count
                row[1] += total
                row[2] += child
        return merged

    def extras(self) -> dict[str, float]:
        merged: dict = defaultdict(float)
        for e in list(self._extras):
            for key, value in list(e.items()):
                merged[key] += value
        return merged


class Layers:
    """Per-name sums over a merged span table."""

    def __init__(self, tracer: Tracer) -> None:
        self.rows = tracer.table()
        self.extra = tracer.extras()

    def count(self, name: str, parent: str | None = ...) -> int:
        return sum(r[0] for (n, p), r in self.rows.items() if n == name and parent in (..., p))

    def total(self, name: str, parent: str | None = ...) -> float:
        return sum(r[1] for (n, p), r in self.rows.items() if n == name and parent in (..., p))

    def self_total(self, name: str) -> float:
        return sum(r[1] - r[2] for (n, _), r in self.rows.items() if n == name)

    def mean(self, name: str) -> float:
        """Mean seconds per call; 0 where the layer was not called."""
        calls = self.count(name)
        return self.total(name) / calls if calls else 0.0

    def summary(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[1] - r[2]}
            for (n, p), r in sorted(self.rows.items(), key=lambda kv: -kv[1][1])
        ]
