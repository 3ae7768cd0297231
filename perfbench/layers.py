"""Benchmark-side spans around calls into the program's public functions.

The benchmark measures the program only from outside: it replaces a
public function or method with a timing wrapper for the duration of a
traced segment and restores the original afterwards.  Nothing inside
``src/`` records a span for the benchmark.

Spans nest through a stack, so each one knows how much of its interval
its child spans covered; a layer's *self* time is its total minus that.
The recorder is single-threaded, which holds for the in-process
workloads (``retrain`` and ``serve_batch``) that use it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Spans:
    """Totals, child time, call counts and work counts per span name."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float], dt: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.total[name] += dt
        self.child[name] += frame[0]
        self.calls[name] += 1

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``work(*args, **kwargs)``, when given, returns the amount of work
        one call does (for example LUT gathers), summed per span.
        """
        orig = getattr(owner, attr)
        spans = self

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            frame = spans._enter()
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                spans._exit(name, frame, time.perf_counter() - t0)
                if work is not None:
                    spans.work[name] += work(*args, **kwargs)

        self._install(owner, attr, timed)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Time each ``next()`` of the iterator ``owner.attr()`` returns."""
        orig = getattr(owner, attr)
        spans = self

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            it = iter(orig(*args, **kwargs))
            while True:
                frame = spans._enter()
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    spans._stack.pop()  # the exhausted fetch is no batch
                    return
                spans._exit(name, frame, time.perf_counter() - t0)
                yield item

        self._install(owner, attr, timed)

    def _install(self, owner, attr: str, replacement) -> None:
        own = attr in getattr(owner, "__dict__", {}) or hasattr(
            owner, "__slots__"
        )
        self._undo.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._undo:
            owner, attr, orig, own = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def top_level_s(self) -> float:
        """Time covered by spans with no parent span (sum of self times)."""
        return sum(self.self_s(n) for n in list(self.total))
