"""A speed gauge for the machine the benchmark runs on.

The sandboxes this benchmark runs in change speed by 20-40% for minutes
at a time (measured: the same CLI job took 1.28 s and 1.78 s twenty
minutes apart, with every other workload slowing in step).  No estimator
inside a 10 s window can average that away, and no bound the contract
allows can tell it from a regression.  So a run also times a small fixed
kernel — interpreter work, a random gather, a sort, many tiny numpy
calls: the same kinds of work the walk engine does — a few dozen times,
spread between its set-up repetitions and its jobs, and the time-based
end-to-end metrics are reported for a machine on which that kernel
takes ``NOMINAL_S``.  The kernel touches nothing of ``repro``, so a
change to the program moves the metrics exactly as it moves the raw
times; only the sandbox's mood is divided out.  Raw values and the
factor are printed beside every run.
"""

from __future__ import annotations

import time

import numpy as np

from .stats import median

__all__ = ["NOMINAL_S", "SpeedGauge"]

# One kernel pass on the machine the bounds were calibrated on, in a
# quiet phase.  Only ratios between runs matter; the constant just keeps
# the reported numbers close to the raw ones.
NOMINAL_S = 0.015


class SpeedGauge:
    """Times the reference kernel; ``factor`` is how much slower than
    nominal the machine ran while this gauge was sampling."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240607)
        self._values = rng.random(400_000)
        self._order = rng.permutation(self._values.size)
        self._small = rng.random(64)
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, count: int = 1, min_gap_s: float = 0.0) -> None:
        """Time ``count`` kernel passes — unless the gauge sampled less
        than ``min_gap_s`` ago (for callers inside a loop of short jobs)."""
        if time.perf_counter() - self._last < min_gap_s:
            return
        for _ in range(count):
            start = time.perf_counter()
            total = 0
            for i in range(150_000):
                total += i * i
            picked = self._values[self._order]
            picked.sort()
            np.cumsum(picked, out=picked)
            small = self._small
            for _ in range(2000):
                small = np.add(small, 1.0)
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    @property
    def factor(self) -> float:
        return median(self.samples) / NOMINAL_S if self.samples else 1.0
