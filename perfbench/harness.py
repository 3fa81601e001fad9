"""Measurement helpers shared by the benchmark's workloads.

Everything here observes the simulator from outside: spans are recorded
by the benchmark around calls into ``repro``'s public functions, and the
engine phase loop is timed through a subclass that lives in this file,
so the program itself carries no benchmark code.
"""

from __future__ import annotations

import itertools
import json
import resource
import statistics
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from repro.machine.engine import CubeNetwork


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile, interpolated between the closest ranks."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: name, start, end, parent and trace id.

    Each thread keeps its own stack of open spans, so spans opened by
    concurrent load-generator clients nest under their own request.
    Spans are only written out by :meth:`write`, after the run.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "trace": trace if trace is not None else (
                parent["trace"] if parent is not None else None
            ),
            "start": perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_seconds(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        children = sorted(
            (c["start"], c["end"])
            for c in self.spans
            if c["parent"] == span["id"]
        )
        covered = 0.0
        cursor = span["start"]
        for start, end in children:
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        return (span["end"] - span["start"]) - covered

    def children_seconds(self, span: dict, name: str) -> float:
        return sum(
            c["end"] - c["start"]
            for c in self.spans
            if c["parent"] == span["id"] and c["name"] == name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s["start"])
        path.write_text(json.dumps({"spans": ordered}) + "\n")


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    enabled = False

    def span(self, name: str, trace: str | None = None):
        return nullcontext()


NULL_TRACER = NullTracer()


class InstrumentedNetwork(CubeNetwork):
    """A ``CubeNetwork`` that times each ``execute_phase`` call.

    Each phase becomes a ``machine.phase`` span under whatever span the
    calling thread has open; the blocks each phase carries are counted
    after the clock stops, so counting costs no phase time.
    """

    def __init__(self, params, *, tracer: Tracer, **kwargs) -> None:
        super().__init__(params, **kwargs)
        self.tracer = tracer
        self.blocks = 0

    def execute_phase(self, messages, *, exclusive: bool = False) -> float:
        with self.tracer.span("machine.phase"):
            duration = super().execute_phase(messages, exclusive=exclusive)
        self.blocks += sum(len(m.keys) for m in messages)
        return duration
