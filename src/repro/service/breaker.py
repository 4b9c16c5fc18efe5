"""Circuit breaker — fail fast instead of retry-storm.

:class:`CircuitBreaker` is the classic three-state machine around
request execution.  CLOSED passes everything and counts consecutive
failures; at ``failure_threshold`` it OPENs and sheds instantly (no
engine is even constructed) until ``reset_timeout`` elapses; then
HALF_OPEN lets a limited number of probe requests through — one success
re-CLOSEs, one failure re-OPENs with a fresh timer.  A dependency that
keeps failing therefore costs O(1) work per ``reset_timeout``, not one
doomed execution per queued request.

It is clock-injectable for deterministic tests and lock-protected for
use from concurrent service workers.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ConfigError

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed half-open probes."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        half_open_probes: int = 1,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise ConfigError("failure_threshold must be positive")
        if reset_timeout < 0:
            raise ConfigError("reset_timeout must be non-negative")
        if half_open_probes <= 0:
            raise ConfigError("half_open_probes must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request proceed right now?

        A ``True`` from the HALF_OPEN state reserves a probe slot; the
        caller must follow up with :meth:`record_success` or
        :meth:`record_failure` to release it.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._state = HALF_OPEN
                    self._probes_in_flight = 0
                else:
                    self.rejections += 1
                    return False
            # HALF_OPEN: admit up to half_open_probes concurrent probes.
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probes_in_flight = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._probes_in_flight = 0

