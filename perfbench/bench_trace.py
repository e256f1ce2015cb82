"""In-memory spans and counters for the traced benchmark run.

A span records one call from the benchmark into a layer: its name, start and
end on the perf_counter clock, the span that encloses it and the operation it
belongs to.  Spans stay in memory until ``dump`` writes them once at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def mean(self, name: str) -> float:
        spans = self.named(name)
        return sum(s.duration for s in spans) / len(spans)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that direct children cover."""
        children = sorted(
            (s.start, s.end) for s in self.spans if s.parent == span.id
        )
        covered, cursor = 0.0, span.start
        for start, end in children:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def dump(self, path) -> None:
        records = [dict(asdict(s), self_s=self.self_time(s)) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(records, fh)
