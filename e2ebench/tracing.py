"""In-memory spans for the benchmark's traced run.

Spans are recorded from the benchmark's own code, around the calls it
makes into each layer's public functions; nothing inside the package is
instrumented.  They stay in memory while the workload runs and are written
once, at the end, as Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``).

A span's *self time* is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "tid", "start", "end", "args")

    def __init__(self, sid, parent, name, tid, start, end, args):
        self.id = sid
        self.parent = parent
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.args = args

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Thread-aware span recorder: nesting follows each thread's call stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        """Time the body; the innermost open span of this thread is the parent."""
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1] if stack else None,
            name,
            threading.get_ident(),
            0,
            0,
            args,
        )
        stack.append(span.id)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)

    def record(self, name: str, start: int, end: int, parent: Optional[int] = None, **args) -> Span:
        """Add a span timed by the caller (e.g. on a thread the tracer does not drive)."""
        span = Span(next(self._ids), parent, name, threading.get_ident(), start, end, args)
        self.spans.append(span)
        return span

    def self_times(self) -> Dict[int, float]:
        """Seconds of each span not covered by its children."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in self.spans:
            covered = 0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.id] = (span.end - span.start - covered) / 1e9
        return result

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write_chrome(self, path, metadata: dict) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        self_times = self.self_times()
        origin = min((span.start for span in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "pid": pid,
                "tid": span.tid,
                "args": dict(
                    span.args,
                    span_id=span.id,
                    parent=span.parent,
                    self_us=self_times[span.id] * 1e6,
                ),
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
                handle,
            )
