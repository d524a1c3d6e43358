"""Span recording for the traced benchmark run.

A ``Recorder`` wraps the package's public functions at run time, at every
module attribute (or class attribute) where a caller looks them up, so
calls made inside the package show up as child spans: the merges inside
``simulate_emitter_tags``, the dark counts inside ``run_detection``, the
fitter inside ``fit_g2``. Nothing under ``src/`` is edited; ``uninstall``
puts the original objects back. Spans are kept in memory and turned into
per-layer numbers after the pass.

The benchmark is one thread, so a span's children are strictly nested
inside it and its self time is its duration minus the sum of its
children's durations.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def untraced_time(spans: list[Span], wall: float) -> float:
    """Part of ``wall`` that no root span covers (the caller's own code)."""
    return wall - sum(s.duration for s in spans if s.parent < 0)


class Recorder:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``count(args, kwargs, result)``
        returns the span's work counts and runs after the span ends."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, name: str, fn: Callable, owners: list, count: Callable | None = None):
        """Replace ``fn`` by its traced wrapper on every owner that binds it."""
        wrapper = self.wrap(name, fn, count)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []
