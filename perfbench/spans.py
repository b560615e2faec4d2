"""In-memory span recorder for the traced run.

A span is (name, start, end, op id): one call from the benchmark into a
public function of one hyperdeg module. Spans stay in a list until the run
ends and are then written out in one piece, so recording costs two clock
reads and an append. With tracing off, `span` hands back one shared no-op
context manager and records nothing.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

_NOOP = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans.append((self.name, self.start, perf_counter(), t.op_id))


class Tracer:
    """Collects spans when enabled; `op_id` names the op that owns new spans."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, str]] = []
        self.op_id = ""

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NOOP

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called `name`, in ms; 0 if none."""
        durations = [end - start for n, start, end, _ in self.spans if n == name]
        return 1000.0 * sum(durations) / len(durations) if durations else 0.0

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, spans=[list(s) for s in self.spans])
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
