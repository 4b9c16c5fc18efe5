"""Span tracer with explicit clock injection.

Two ways to put a span on the timeline:

* the **measured** path — ``with tracer.span("superstep"): ...`` (or an
  explicit ``open_span`` / ``close_span`` pair) reads the *injected*
  clock (``perf_counter`` by default) around the block.  Local engines'
  spans are measured.
* the **declared** path — ``tracer.record_span(name, ts=..., dur=...)``
  takes timestamps the caller already owns.  The cluster simulator uses
  this exclusively with its simulated seconds, so tracing a distributed
  run performs **zero clock reads** inside ``repro.cluster`` (lint
  rules RK201/RK210/RK206 stay clean) and a degraded run's trace is
  bit-identical across replay.

Causality is tracked two ways: the measured path keeps a per-track
stack so nested ``span()`` blocks get parent ids automatically, and
both paths accept a ``trace_id`` so logically-related spans on
different tracks (a walker hopping between nodes, a service request
fanning out to shards) stitch into one trace.

A tracer is an engine-event subscriber (``engine.observe(tracer)``;
:mod:`repro.obs.engine_spans` says which spans a run produces).  The
hard off-switch is ``enabled=False`` (or not attaching a tracer):
``observe`` then binds nothing.  ``sample_every`` thins only
*per-walker* spans (the one cardinality that scales with workload
size); structural spans (run, superstep, stages) are always kept.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import ObsError
from .engine_spans import EngineSpans

__all__ = ["Span", "Tracer", "default_clock"]


def default_clock() -> float:
    """Monotonic wall clock for local (non-simulated) engines."""
    return time.perf_counter()


@dataclass
class Span:
    """One completed span.  ``ts``/``dur`` are seconds relative to the
    tracer's epoch — wall seconds for local runs, simulated seconds for
    cluster runs."""

    name: str
    ts: float
    dur: float
    track: str = "main"
    category: str = "engine"
    span_id: int = 0
    parent_id: int | None = None
    trace_id: str | None = None
    args: dict[str, Any] = field(default_factory=dict)


class Tracer(EngineSpans):
    """Collects :class:`Span` records against one injected clock.

    Parameters
    ----------
    clock:
        zero-arg callable returning seconds.  Defaults to
        ``perf_counter``.  Simulated-time packages must inject their
        own clock or use only :meth:`record_span` (rule RK206).
    enabled:
        the hard off-switch.  When ``False`` every method is a no-op
        and engines treat the tracer as absent.
    sample_every:
        keep per-walker spans only for walker ids divisible by this
        (deterministic — no RNG).  1 keeps everything.
    max_spans:
        safety cap; recording beyond it silently drops spans so a
        forgotten tracer cannot exhaust memory on a long soak.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        enabled: bool = True,
        sample_every: int = 1,
        max_spans: int = 1_000_000,
    ) -> None:
        if sample_every < 1:
            raise ObsError(f"sample_every must be >= 1, got {sample_every}")
        self._clock = clock if clock is not None else default_clock
        self.enabled = bool(enabled)
        self.sample_every = int(sample_every)
        self.max_spans = int(max_spans)
        self.spans: list[Span] = []
        self.dropped = 0
        self._next_id = 1
        self._stacks: dict[str, list[int]] = {}
        self._lock = threading.Lock()
        self._epoch: float | None = None
        EngineSpans.__init__(self, self)

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Seconds since the first clock read (tracer epoch)."""
        raw = self._clock()
        if self._epoch is None:
            self._epoch = raw
        return raw - self._epoch

    def sampled(self, key: int) -> bool:
        """Deterministic keep/drop decision for per-walker spans."""
        return self.enabled and key % self.sample_every == 0

    # -- declared path (simulated time) --------------------------------

    def record_span(
        self,
        name: str,
        *,
        ts: float,
        dur: float,
        track: str = "main",
        category: str = "engine",
        parent_id: int | None = None,
        trace_id: str | None = None,
        args: dict[str, Any] | None = None,
    ) -> int:
        """Record a span with caller-supplied timestamps.  Returns the
        span id (0 when disabled/dropped) for use as a later parent."""
        if not self.enabled:
            return 0
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return 0
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(
                Span(
                    name=name,
                    ts=float(ts),
                    dur=float(dur),
                    track=track,
                    category=category,
                    span_id=span_id,
                    parent_id=parent_id,
                    trace_id=trace_id,
                    args=dict(args) if args else {},
                )
            )
        return span_id

    # -- measured path (injected clock) --------------------------------

    def open_span(
        self,
        name: str,
        *,
        track: str = "main",
        category: str = "engine",
        trace_id: str | None = None,
        args: dict[str, Any] | None = None,
    ) -> Span:
        """Start a measured span, nested under the innermost span still
        open on *track*.  The returned span is not recorded until
        :meth:`close_span`; its ``args`` may be filled in meanwhile."""
        span = Span(
            name=name,
            ts=self.now(),
            dur=0.0,
            track=track,
            category=category,
            trace_id=trace_id,
            args=dict(args) if args else {},
        )
        with self._lock:
            stack = self._stacks.setdefault(track, [])
            span.parent_id = stack[-1] if stack else None
            span.span_id = self._next_id
            self._next_id += 1
            stack.append(span.span_id)
        return span

    def close_span(self, span: Span) -> None:
        """End a span started by :meth:`open_span` and record it."""
        span.dur = max(self.now() - span.ts, 0.0)
        with self._lock:
            stack = self._stacks.get(span.track)
            if stack and stack[-1] == span.span_id:
                stack.pop()
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped += 1

    @contextmanager
    def span(
        self,
        name: str,
        *,
        track: str = "main",
        category: str = "engine",
        trace_id: str | None = None,
        args: dict[str, Any] | None = None,
    ) -> Iterator[Span | None]:
        """Measured span around a block; nests via a per-track stack.
        The block may attach result args (``span.args["active"] = n``)
        before the span closes."""
        if not self.enabled:
            yield None
            return
        span = self.open_span(
            name, track=track, category=category, trace_id=trace_id, args=args
        )
        try:
            yield span
        finally:
            self.close_span(span)

    # -- introspection --------------------------------------------------

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def __len__(self) -> int:
        return len(self.spans)
