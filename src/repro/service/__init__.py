"""Overload-robust serving layer over the walk engines.

The engines (:mod:`repro.core.engine`, :mod:`repro.cluster.engine`,
:mod:`repro.parallel`) execute walks as fast as they can; this package
makes them *safe to put behind traffic*: bounded admission queues with
load shedding, deadline propagation with cooperative cancellation,
graceful degradation under pressure, a supervised process pool that
cannot hang on a dead worker, and a circuit breaker that sheds fast
when execution keeps failing.  See docs/INTERNALS.md §10 for the
design tour and ``examples/overload.py`` for a bursty-stream demo.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    breaker=("CircuitBreaker", "RetryBudget"),
    deadline=("CancelToken", "Deadline"),
    degrade=("DegradationPolicy", "apply_degradation"),
    pool=("SupervisedPool",),
    queue=("SHED_POLICIES", "AdmissionQueue"),
    request=(
        "DEADLINE_EXCEEDED",
        "FAILED",
        "OK",
        "SHED",
        "WalkRequest",
        "WalkResponse",
        "WalkTicket",
    ),
    service=("WalkService",),
)
