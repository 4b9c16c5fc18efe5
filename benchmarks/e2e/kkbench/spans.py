"""The benchmark's own in-memory span recorder.

Deliberately not ``repro.obs.Tracer``: the benchmark must keep working
while later PRs reshape ``repro.obs``.  A span is (name, start, end,
parent, job id); spans stay in memory during the run and are written as
Chrome trace-event JSON when the benchmark ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    thread: str
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; a disabled recorder records nothing.

    ``span()`` nests per thread: a span opened inside another span on
    the same thread gets it as parent and inherits its job id.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def _open_spans(self) -> list[Span]:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        return stack

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        job: str | None = None,
        **args,
    ) -> Span | None:
        """Add a span whose interval the caller measured itself."""
        if not self.enabled:
            return None
        with self._lock:
            span = Span(
                span_id=len(self.spans) + 1,
                name=name,
                start=start,
                end=end,
                parent=parent,
                job=job,
                thread=threading.current_thread().name,
                args=args,
            )
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, job: str | None = None, **args):
        """Time the enclosed block; yields the open span (or ``None``)."""
        if not self.enabled:
            yield None
            return
        stack = self._open_spans()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent.job
        start = self.clock()
        span = self.record(
            name,
            start,
            start,
            parent=None if parent is None else parent.span_id,
            job=job,
            **args,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.named(name)]

    def children(self, span: Span) -> list[Span]:
        return [other for other in self.spans if other.parent == span.span_id]

    def self_time(self, span: Span, children: list[Span] | None = None) -> float:
        """Duration minus the part of the interval child spans cover.

        Children are clipped to the parent and merged first, so
        overlapping children (parallel work) are not subtracted twice.
        """
        if children is None:
            children = self.children(span)
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (``ph: "X"`` complete events, µs)."""
        origin = min((span.start for span in self.spans), default=0.0)
        threads = sorted({span.thread for span in self.spans})
        tids = {thread: index + 1 for index, thread in enumerate(threads)}
        by_parent: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                by_parent.setdefault(span.parent, []).append(span)
        events: list[dict] = [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": thread},
            }
            for thread, tid in tids.items()
        ]
        for span in self.spans:
            args = dict(span.args)
            args["span_id"] = span.span_id
            if span.parent is not None:
                args["parent"] = span.parent
            if span.job is not None:
                args["job"] = span.job
            self_time = self.self_time(span, by_parent.get(span.span_id, []))
            args["self_us"] = round(self_time * 1e6, 1)
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "pid": 1,
                    "tid": tids[span.thread],
                    "ts": round((span.start - origin) * 1e6, 1),
                    "dur": round(span.duration * 1e6, 1),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
