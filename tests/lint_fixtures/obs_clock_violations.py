# lint-fixture-path: src/repro/cluster/obs_sim.py
"""RK206 positives: host-clock tracers inside a simulated-time module.

Only clock *references* appear here (never ``time.*()`` calls), so
RK210 stays silent and every finding below is RK206's alone.
"""

import time

from repro.obs import Tracer
from repro.obs.tracer import default_clock


def build_tracers(sim_clock):
    implicit = Tracer()  # expect: RK206
    host = Tracer(clock=time.perf_counter)  # expect: RK206
    relabelled = Tracer(clock=default_clock)  # expect: RK206
    injected = Tracer(clock=sim_clock)
    return implicit, host, relabelled, injected
