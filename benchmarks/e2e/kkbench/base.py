"""What every workload shares: jobs, measured windows, the end-to-end
metric definitions, and the report a traced run fills layer by layer."""

from __future__ import annotations

import importlib
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .gauge import SpeedGauge
from .spans import SpanRecorder
from .stats import median, percentile, samples_beyond, supported_percentile

__all__ = [
    "Job",
    "LayerReport",
    "ProbeUnavailable",
    "Window",
    "Workload",
    "end_to_end_metrics",
    "public",
    "timed",
]

clock = time.perf_counter


@dataclass
class Job:
    """One request -> product round trip on the harness clock."""

    job_id: str
    start: float
    end: float
    steps: int = 0
    kind: str = ""
    problems: list[str] = field(default_factory=list)
    # Open-loop requests are timed from when they were due, not sent.
    due: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def latency_ms(self) -> float:
        origin = self.start if self.due is None else self.due
        return (self.end - origin) * 1e3


@dataclass
class Window:
    """The jobs of one measured window and the throughput they show."""

    jobs: list[Job]
    steps_per_s: float
    # A service's throughput is not a speed: in the open loop it is set
    # by the send schedule, in the closed loop by interpreter-lock
    # hand-offs whose 5 ms interval is a constant of the interpreter
    # (measured: it rose while the machine slowed).  Such a rate is
    # reported as timed, never speed-corrected.
    rate_as_timed: bool = False
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for job in self.jobs if not job.ok)


def end_to_end_metrics(
    window: Window, setup_s: float, peak_rss_mb: float, speed_factor: float = 1.0
) -> dict[str, float]:
    """The end-to-end metrics, defined the same way on every workload.

    A job is a CLI invocation, a library call or a service request;
    its latency runs from the request (or, in an open loop, the time it
    was due) to the product.  Failed jobs add to ``failed`` and to no
    rate or percentile.  Times are divided by ``speed_factor`` — how
    much slower than nominal the machine ran during this run, see
    ``gauge.py`` — and rates multiplied by it; 1.0 gives the raw values.
    """
    latencies = [job.latency_ms for job in window.jobs if job.ok]
    if not latencies:
        raise RuntimeError("no job of the measured window succeeded")
    return {
        "setup_s": setup_s / speed_factor,
        "steps_per_s": window.steps_per_s * (
            1.0 if window.rate_as_timed else speed_factor
        ),
        "latency_p50_ms": median(latencies) / speed_factor,
        "peak_rss_mb": peak_rss_mb,
    }


def latency_sample_note(window: Window) -> str:
    """States the sample count behind the latency figures, and the
    highest percentile that count supports."""
    latencies = [job.latency_ms for job in window.jobs if job.ok]
    tail = supported_percentile(len(latencies))
    note = f"latency over N={len(latencies)} jobs"
    if tail > 50.0:
        beyond = samples_beyond(len(latencies), tail)
        note += (
            f"; p{tail:g} = {percentile(latencies, tail):.1f} ms "
            f"({beyond} samples beyond it)"
        )
    else:
        note += "; too few for a tail percentile (10 samples beyond it needed)"
    return note


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------
class ProbeUnavailable(Exception):
    """The public function a layer probe calls is gone."""


def public(path: str):
    """Resolve ``"package.module:attribute"`` or raise ProbeUnavailable."""
    module_name, _, attribute = path.partition(":")
    try:
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise ProbeUnavailable(f"{path} is not available: {error}") from error
    return target


class LayerReport:
    """Per-layer values of one traced run; a metric whose probe could
    not run is recorded as missing with the reason, never as a crash."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.missing: dict[str, str] = {}

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    @contextmanager
    def probing(self, *names: str):
        """Run one layer's probe; if the public call it relies on has
        been removed or reshaped, mark ``names`` missing instead."""
        try:
            yield
        except (ProbeUnavailable, ImportError, AttributeError, TypeError) as error:
            reason = f"{type(error).__name__}: {error}"
            print(f"[layers] {', '.join(names)}: {reason}", file=sys.stderr)
            for name in names:
                if name not in self.values:
                    self.missing[name] = reason


def timed(recorder: SpanRecorder, name: str, call, **args):
    """(result, seconds) of ``call()``, recorded as a span when tracing."""
    with recorder.span(name, **args):
        start = clock()
        result = call()
        elapsed = clock() - start
    return result, elapsed


# ----------------------------------------------------------------------
class Workload:
    """One workload: set-up, a measured window, and its layer probes.

    A fresh instance is made per set-up repetition; ``setup`` is timed
    by the harness and covers input generation, file writing, graph /
    service construction and the discarded warm-up job.
    """

    name = ""

    def __init__(
        self,
        seed: int,
        workdir,
        quick: bool = False,
        seconds: float = 10.0,
        gauge: SpeedGauge | None = None,
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.seconds = seconds  # the window(s) this instance will measure
        # Sampled around the timed intervals, never inside one.
        self.gauge = gauge if gauge is not None else SpeedGauge()

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_verifier(self) -> None:
        """Build the verifier's own view of the inputs (not timed)."""

    def measure(self, seconds: float, recorder: SpanRecorder) -> Window:
        raise NotImplementedError

    def layers(
        self, window: Window, recorder: SpanRecorder, report: LayerReport
    ) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` opened."""

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process that holds the product."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
