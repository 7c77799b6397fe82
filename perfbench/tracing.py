"""In-memory spans recorded by the benchmark around calls into the package.

A span has a name, a start and an end (``perf_counter_ns``), the index of
the span that was open when it started (its parent, -1 for a root) and a
run id shared by the spans of one pass.  Spans stay in memory and are
written out once, when the benchmark ends.  The package itself has no
spans yet; when it gains them, the traced run should read those instead
of wrapping the calls here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    run_id: str

    @property
    def ns(self) -> int:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.open[-1] if tracer.open else -1
        span = Span(self.name, 0, 0, parent, tracer.run_id)
        tracer.spans.append(span)
        tracer.open.append(self.index)
        span.start = perf_counter_ns()

    def __exit__(self, *exc_info):
        end = perf_counter_ns()
        tracer = self.tracer
        tracer.spans[self.index].end = end
        tracer.open.pop()
        return False


class Tracer:
    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.open: list[int] = []

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.ns for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.ns
        return own

    def durations(self, name: str, run_id: str | None = None) -> list[int]:
        return [
            s.ns for s in self.spans
            if s.name == name and (run_id is None or s.run_id == run_id)
        ]

    def total_s(self, name: str, run_ids: list[str]) -> float:
        """Median over passes of the summed duration of spans called ``name``."""
        return median(sum(self.durations(name, rid)) for rid in run_ids) / 1e9

    def self_total_s(self, name: str, run_ids: list[str]) -> float:
        """Like total_s, but of the spans' self times."""
        own = self.self_ns()
        return median(
            sum(own[i] for i, s in enumerate(self.spans) if s.name == name and s.run_id == rid)
            for rid in run_ids
        ) / 1e9

    def call_us(self, name: str) -> float:
        """Median duration of one span called ``name``, in microseconds."""
        durations = self.durations(name)
        return median(durations) / 1e3 if durations else 0.0

    def write(self, path: Path, meta: dict) -> None:
        own = self.self_ns()
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for i, span in enumerate(self.spans):
                out.write(json.dumps({
                    "i": i, "name": span.name, "start_ns": span.start,
                    "end_ns": span.end, "parent": span.parent,
                    "run_id": span.run_id, "self_ns": own[i],
                }) + "\n")


class _Nothing:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


class NullTracer:
    """Same interface as Tracer, records nothing: the untraced pass."""

    _NOTHING = _Nothing()

    def span(self, name: str) -> _Nothing:
        return self._NOTHING
