# lint-fixture-path: src/repro/cluster/sim.py
"""RK210 zero-hop positives: wall-clock reads inside a simulated-time module."""

import time
from time import perf_counter
from datetime import datetime


def advance(events):
    started = time.time()  # expect: RK210
    tick = perf_counter()  # expect: RK210
    stamp = datetime.now()  # expect: RK210
    nanos = time.monotonic_ns()  # expect: RK210
    return started, tick, stamp, nanos, len(events)
