"""Benchmark-side spans: name, start, end, parent and operation id.

Spans are recorded around the benchmark's own calls into the program's
public functions, kept in memory, and written out when the run ends.
A span's self time is its duration minus the time of its children;
children of one span never overlap because each thread keeps its own
stack.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: Optional[str]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            self._ids += 1
            span_id = self._ids
        if op is None and parent is not None:
            op = parent.op
        record = Span(span_id, name, parent.id if parent else None, op,
                      time.perf_counter())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.seconds
        return {s.id: s.seconds - children.get(s.id, 0.0) for s in self.spans}

    def self_ms(self, name: str) -> list[float]:
        own = self.self_seconds()
        return [own[s.id] * 1000 for s in self.named(name)]

    def write(self, path, header: dict) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        own = self.self_seconds()
        rows = [
            {**asdict(s), "start": s.start - origin, "end": s.end - origin,
             "self": own[s.id]}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": rows}, handle, indent=1)
            handle.write("\n")


class NullTracer:
    """The untraced pass: the same call sites, no recording."""

    def span(self, name: str, op: Optional[str] = None):
        return contextlib.nullcontext()
