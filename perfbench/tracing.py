"""In-memory spans around the benchmark's calls into the library."""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str  # "<module>.<function>" of the library call, or "bench.<step>"
    start: float  # time.perf_counter() seconds
    end: float
    parent: int | None  # index of the enclosing span
    pass_id: int


class Tracer:
    """Records nested spans; nothing is written until :meth:`dump`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.pass_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.pass_id)

    def self_seconds(self, pass_id: int) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            if s.pass_id == pass_id:
                totals[s.name] += s.end - s.start - covered[i]
        return dict(totals)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": list(Span._fields), "spans": self.spans}, out)


class NullTracer:
    """Stand-in used with tracing off: no spans, no clock reads."""

    enabled = False
    pass_id = 0
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
