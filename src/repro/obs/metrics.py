"""Typed metrics registry: counters, gauges, histograms.

The registry is the export model of every number the repo counts:
the stats classes project themselves into it
(:meth:`repro.obs.counted.Counted.to_registry`), and new
instrumentation can write to it directly.  Three properties drive the
design:

* **Mergeable.**  Every instrument is a plain picklable dataclass and
  :meth:`MetricsRegistry.merge` is associative/commutative (counters
  add, gauges take the max observed, histograms add bucket-wise).
* **Fixed bucket boundaries.**  Histograms declare their boundaries at
  creation; merging two histograms with different boundaries is an
  error rather than a silent re-bucketing, so cross-shard percentile
  math stays exact.
* **Deterministic.**  Nothing here reads a clock or draws randomness —
  the registry only aggregates numbers handed to it, so attaching one
  to a simulated cluster run cannot perturb replay (see RK206).
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import ObsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "ACTIVE_WALKER_BUCKETS",
    "SUPERSTEP_SECONDS_BUCKETS",
]

# Fixed boundaries shared by every producer of the same metric family,
# so shard-local histograms always merge exactly.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
ACTIVE_WALKER_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)
SUPERSTEP_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ObsError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically non-decreasing count."""

    name: str
    labels: LabelKey = ()
    help: str = ""
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Gauge:
    """Point-in-time value.  Merging keeps the maximum, which is the
    right fold for the gauges we ship across shards (queue depth peak,
    walker high-water marks); use a counter for anything additive."""

    name: str
    labels: LabelKey = ()
    help: str = ""
    value: float = 0.0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge_from(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)


@dataclass
class Histogram:
    """Fixed-boundary histogram (cumulative-bucket export, Prometheus
    style).  ``counts`` has ``len(boundaries) + 1`` slots; the last is
    the overflow (+Inf) bucket."""

    name: str
    labels: LabelKey = ()
    help: str = ""
    boundaries: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0

    kind = "histogram"

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.boundaries)
        if not bounds:
            raise ObsError(f"histogram {self.name} needs >= 1 boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObsError(
                f"histogram {self.name} boundaries must be strictly "
                f"increasing, got {bounds}"
            )
        self.boundaries = bounds
        if not self.counts:
            self.counts = [0] * (len(bounds) + 1)
        elif len(self.counts) != len(bounds) + 1:
            raise ObsError(
                f"histogram {self.name} has {len(self.counts)} counts "
                f"for {len(bounds)} boundaries"
            )

    @property
    def count(self) -> int:
        return sum(self.counts)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.sum += value

    def merge_from(self, other: "Histogram") -> None:
        if other.boundaries != self.boundaries:
            raise ObsError(
                f"histogram {self.name} bucket mismatch: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum


Instrument = Counter | Gauge | Histogram


@dataclass
class MetricsRegistry:
    """Keyed store of instruments.

    Instruments are keyed by ``(name, sorted label items)``; asking for
    the same key twice returns the same object, asking with a different
    instrument kind (or histogram boundaries) raises :class:`ObsError`.
    """

    _metrics: dict[tuple[str, LabelKey], Instrument] = field(
        default_factory=dict
    )

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        boundaries: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (self._check_name(name), _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ObsError(
                    f"metric {name} already registered as {existing.kind}"
                )
            if existing.boundaries != tuple(float(b) for b in boundaries):
                raise ObsError(
                    f"histogram {name} re-registered with different "
                    f"boundaries"
                )
            return existing
        hist = Histogram(
            name=name, labels=key[1], help=help, boundaries=boundaries
        )
        self._metrics[key] = hist
        return hist

    def _check_name(self, name: str) -> str:
        if not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        return name

    def _get(self, cls, name: str, help: str, labels: dict[str, str]):
        key = (self._check_name(name), _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObsError(
                    f"metric {name} already registered as {existing.kind}"
                )
            return existing
        inst = cls(name=name, labels=key[1], help=help)
        self._metrics[key] = inst
        return inst

    def instruments(self) -> Iterator[Instrument]:
        """All instruments in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def get(self, name: str, **labels: str) -> Instrument | None:
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Convenience: scalar value of a counter/gauge (0.0 if absent)."""
        inst = self.get(name, **labels)
        if inst is None:
            return 0.0
        if isinstance(inst, Histogram):
            return float(inst.count)
        return inst.value

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters add, gauges max,
        histograms add bucket-wise).  Returns ``self`` for chaining."""
        for key, inst in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                # Copy so later merges never mutate the source registry.
                if isinstance(inst, Histogram):
                    mine = Histogram(
                        name=inst.name,
                        labels=inst.labels,
                        help=inst.help,
                        boundaries=inst.boundaries,
                    )
                else:
                    mine = type(inst)(
                        name=inst.name, labels=inst.labels, help=inst.help
                    )
                self._metrics[key] = mine
            if type(mine) is not type(inst):
                raise ObsError(
                    f"merge kind mismatch for {inst.name}: "
                    f"{mine.kind} vs {inst.kind}"
                )
            mine.merge_from(inst)
        return self
