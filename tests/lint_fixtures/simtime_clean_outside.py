# lint-fixture-path: src/repro/service/server.py
"""RK210 negative: wall-clock reads outside simulated-time packages."""

import time


def deadline_remaining(deadline):
    # The serving layer runs on real time; RK210 is scoped to the
    # simulator packages and must stay silent here.
    return deadline - time.monotonic()


def profile(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
