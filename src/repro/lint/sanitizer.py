"""Runtime determinism sanitizer.

The static rules in this package reject the *syntax* of
nondeterminism; this module checks the *behaviour*: it wraps an engine
so that every RNG draw, every walker state transition, and (for the
distributed engine) every message-delivery batch is folded into a
rolling hash, runs the same workload twice, and reports the **first
event where the two executions diverge** — turning "replay is
bit-identical" from an assertion inside one test into a checkable
property of any run (``repro sanitize`` on the CLI).

Why first-divergence localisation matters: a final-state mismatch on a
million-step walk says *something* broke; the event index says *what*
— "run B's 3rd RNG draw differs" points at an unseeded generator,
while "draws agree until message batch 17" points at delivery-order
nondeterminism.  Event payloads are hashed (BLAKE2b, 8 bytes) rather
than stored, so tracing a huge run costs one small digest plus two
interned label strings per event.

The engines expose one event seam (``WalkEngine.observe``) and the
tracer is an ordinary subscriber of it; this module owns everything
else, so the engines never import the lint package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "DeterminismTracer",
    "Divergence",
    "SanitizerReport",
    "TracedRNG",
    "run_sanitized",
]

# Generator methods that consume randomness and therefore must be
# traced.  Anything else (bit_generator, spawn, ...) passes through
# untouched.
_TRACED_DRAWS = frozenset(
    {
        "random", "integers", "choice", "permutation", "permuted",
        "shuffle", "uniform", "normal", "standard_normal",
        "exponential", "poisson", "binomial", "geometric", "beta",
        "gamma", "multinomial",
    }
)


def _digest_value(value: Any) -> bytes:
    """Stable 8-byte digest of a draw result / event payload."""
    hasher = hashlib.blake2b(digest_size=8)
    if isinstance(value, np.ndarray):
        hasher.update(str(value.dtype).encode())
        hasher.update(str(value.shape).encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif value is None:
        hasher.update(b"none")
    else:
        array = np.asarray(value)
        hasher.update(str(array.dtype).encode())
        hasher.update(array.tobytes())
    return hasher.digest()


class TracedRNG:
    """Transparent proxy over ``np.random.Generator`` that records a
    digest of every draw.

    Only drawing methods are intercepted; attribute access otherwise
    forwards to the wrapped generator, so engine code (and program
    hooks receiving this object) runs unmodified.  The trace records
    the *results*, not the requests — two runs that ask for the same
    draws but get different values (an unseeded generator) diverge at
    the first draw.
    """

    def __init__(self, rng: np.random.Generator, tracer: "DeterminismTracer") -> None:
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._rng, name)
        if name not in _TRACED_DRAWS:
            return attr

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = attr(*args, **kwargs)
            if result is None and args:
                # In-place ops (shuffle) — digest the mutated operand.
                self._tracer.record("rng", name, _digest_value(args[0]))
            else:
                self._tracer.record("rng", name, _digest_value(result))
            return result

        return traced


class DeterminismTracer:
    """Accumulates the event stream of one traced execution.

    Per event the tracer stores an 8-byte digest plus two interned
    strings (kind, label) — the value payloads themselves are hashed
    away, so tracing a million-event run costs a few tens of MB at
    most, and the labels keep every divergence report readable.
    """

    def __init__(self) -> None:
        self.digests: list[bytes] = []
        self.kinds: list[str] = []
        self.labels: list[str] = []
        self._rolling = hashlib.blake2b(digest_size=16)

    # ------------------------------------------------------------------
    # Recording: the engine events this tracer subscribes to
    # (WalkEngine.observe), all funnelled into record().
    # ------------------------------------------------------------------
    def record(self, kind: str, label: str, digest: bytes) -> None:
        event = hashlib.blake2b(digest_size=8)
        event.update(kind.encode())
        event.update(label.encode())
        event.update(digest)
        event_digest = event.digest()
        self.digests.append(event_digest)
        self.kinds.append(kind)
        self.labels.append(label)
        self._rolling.update(event_digest)

    def wrap_rng(self, rng: np.random.Generator) -> TracedRNG:
        return TracedRNG(rng, self)

    def _record_arrays(self, kind: str, label: str, *arrays: np.ndarray) -> None:
        self.record(
            kind, label, b"".join(_digest_value(np.asarray(a)) for a in arrays)
        )

    def on_moves(self, walker_ids: np.ndarray, targets: np.ndarray) -> None:
        self._record_arrays("walker", "move", walker_ids, targets)

    def on_kills(self, walker_ids: np.ndarray) -> None:
        self._record_arrays("walker", "kill", walker_ids)

    def on_delivery(
        self, kind: str, sources: np.ndarray, destinations: np.ndarray
    ) -> None:
        """Every message batch — state queries, query responses, walker
        migrations — lands in protocol order, so two runs whose walks
        agree but whose delivery order differs diverge at the first
        reordered batch."""
        self._record_arrays("message", kind, sources, destinations)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self.digests)

    def rolling_hash(self) -> str:
        return self._rolling.hexdigest()

    def describe(self, index: int) -> str:
        if 0 <= index < len(self.digests):
            return (
                f"{self.kinds[index]}:{self.labels[index]} "
                f"digest={self.digests[index].hex()}"
            )
        return "<no event (stream ended)>"


@dataclass(frozen=True)
class Divergence:
    """First point where two traced executions disagree."""

    index: int
    event_a: str
    event_b: str

    def format(self) -> str:
        return (
            f"first divergence at event {self.index}:\n"
            f"  run A: {self.event_a}\n"
            f"  run B: {self.event_b}"
        )


@dataclass
class SanitizerReport:
    """Outcome of a sanitized (run-twice-and-compare) execution."""

    deterministic: bool
    events: tuple[int, ...]
    rolling_hashes: tuple[str, ...]
    divergence: Divergence | None = None
    kind_counts: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        lines = []
        for run, (count, rolling) in enumerate(
            zip(self.events, self.rolling_hashes)
        ):
            lines.append(f"run {run}: {count} events, rolling hash {rolling}")
        if self.kind_counts:
            per_kind = " ".join(
                f"{kind}={count}" for kind, count in sorted(self.kind_counts.items())
            )
            lines.append(f"run 0 event mix: {per_kind}")
        if self.deterministic:
            lines.append(
                "deterministic: all runs produced identical event streams"
            )
        else:
            assert self.divergence is not None
            lines.append("NON-DETERMINISTIC execution detected")
            lines.append(self.divergence.format())
        return "\n".join(lines)


def _first_divergence(
    reference: DeterminismTracer, candidate: DeterminismTracer
) -> Divergence | None:
    limit = min(reference.num_events, candidate.num_events)
    for index in range(limit):
        if reference.digests[index] != candidate.digests[index]:
            return Divergence(
                index=index,
                event_a=reference.describe(index),
                event_b=candidate.describe(index),
            )
    if reference.num_events != candidate.num_events:
        return Divergence(
            index=limit,
            event_a=reference.describe(limit),
            event_b=candidate.describe(limit),
        )
    return None


def run_sanitized(
    engine_factory: Callable[[], Any],
    runs: int = 2,
    run_kwargs: dict[str, Any] | None = None,
) -> SanitizerReport:
    """Execute an engine ``runs`` times under tracing and compare the
    event streams.

    ``engine_factory`` must build a **fresh** engine per call (engines
    are single-shot); anything nondeterministic the factory itself
    does — an unseeded RNG in program setup, wall-clock-dependent
    configuration — is exactly what the comparison catches.
    """
    if runs < 2:
        raise ValueError("sanitizing needs at least two runs to compare")
    kwargs = run_kwargs if run_kwargs is not None else {}
    tracers: list[DeterminismTracer] = []
    for _ in range(runs):
        engine = engine_factory()
        tracer = DeterminismTracer()
        engine.observe(tracer)
        engine.run(**kwargs)
        tracers.append(tracer)

    divergence = None
    for candidate in tracers[1:]:
        divergence = _first_divergence(tracers[0], candidate)
        if divergence is not None:
            break

    kind_counts: dict[str, int] = {}
    for kind in tracers[0].kinds:
        kind_counts[kind] = kind_counts.get(kind, 0) + 1

    return SanitizerReport(
        deterministic=divergence is None,
        events=tuple(t.num_events for t in tracers),
        rolling_hashes=tuple(t.rolling_hash() for t in tracers),
        divergence=divergence,
        kind_counts=kind_counts,
    )
