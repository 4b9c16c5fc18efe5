"""Deterministic-safe observability: metrics registry, span tracer,
exporters, and the declarations every stats class derives its merge,
checkpoint packing and metric export from (:mod:`repro.obs.counted`).

Design rules (docs/INTERNALS.md section 15):

* **Clock injection.**  :class:`Tracer` never owns time — local
  engines inject ``perf_counter``; the cluster simulator passes its
  simulated seconds through :meth:`Tracer.record_span` and performs no
  clock reads at all (lint rules RK206/RK210 enforce this).
* **Observation only.**  Nothing in this package draws randomness or
  feeds back into engine control flow, so attaching a tracer cannot
  change a walk and simulated traces replay bit-identically.
* **One seam.**  A tracer is a subscriber of the engines' event list
  (``engine.observe``); a disabled one is never bound.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    exporters=(
        "to_chrome_trace",
        "to_json_lines",
        "to_prometheus_text",
        "write_chrome_trace",
    ),
    metrics=(
        "ACTIVE_WALKER_BUCKETS",
        "DEFAULT_LATENCY_BUCKETS",
        "SUPERSTEP_SECONDS_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
    ),
    tracer=("Span", "Tracer", "default_clock"),
)
