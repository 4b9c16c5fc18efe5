"""Exception hierarchy for the repro package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed or inconsistent graph inputs."""


class GraphFormatError(GraphError):
    """Raised when parsing an on-disk graph representation fails."""


class PartitionError(ReproError):
    """Raised for invalid partitioning requests (e.g. zero nodes)."""


class SamplingError(ReproError):
    """Raised for invalid sampling setups (e.g. negative weights)."""


class ProgramError(ReproError):
    """Raised when a :class:`~repro.core.program.WalkerProgram` is
    misconfigured, e.g. a dynamic upper bound below an observed Pd."""


class ConfigError(ReproError):
    """Raised for invalid :class:`~repro.core.config.WalkConfig` values."""


class SnapshotError(ReproError):
    """Raised for unreadable checkpoints: truncated or corrupt files,
    checksum mismatches, unknown format versions, or state that does
    not match the engine being restored."""


class SnapshotCorruptError(SnapshotError):
    """Raised when a snapshot file exists and parses far enough to be
    recognised but its content fails integrity verification — a payload
    checksum mismatch, or member data whose decompression/decoding
    fails (bit rot, torn writes).  Distinguished from plain
    :class:`SnapshotError` so callers can tell "this file is damaged,
    restore from another copy" apart from "you handed me the wrong
    file/version"."""


class WalError(GraphError):
    """Raised for unusable write-ahead logs: a bad magic header or a
    record stream whose epochs are out of order.  A *torn tail* (the
    expected result of a crash mid-append) is NOT an error — recovery
    truncates it and reports it in the recovery stats."""


class ServiceError(ReproError):
    """Base class for failures of the overload-robust serving layer
    (:mod:`repro.service`): admission, execution, and supervision
    errors that concern a walk *request* rather than the walk itself."""


class DeadlineExceededError(ServiceError):
    """Raised (by :meth:`repro.service.WalkTicket.raise_for_status`)
    when a request's deadline expired before the walk completed.  The
    engines themselves never raise this — they stop cooperatively and
    return a partial result tagged ``deadline_exceeded`` — so partial
    work is never lost to an exception."""


class OverloadError(ServiceError):
    """Raised when admission control sheds a request: the bounded queue
    was full (or the circuit breaker open) and the configured
    load-shedding policy rejected or evicted it."""


class WorkerError(ServiceError):
    """Raised by the supervised process pool when a worker process
    fails: it died without reporting (e.g. OOM-killed), exceeded its
    per-shard timeout, or raised — in which case the original traceback
    is preserved in :attr:`worker_traceback`.

    Attributes
    ----------
    shard:
        index of the failed task/shard, or ``None``.
    kind:
        ``"exception"``, ``"died"``, or ``"timeout"``.
    worker_traceback:
        the worker-side traceback text for ``"exception"`` failures.
    """

    def __init__(
        self,
        message: str,
        shard: int | None = None,
        kind: str = "died",
        worker_traceback: str | None = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.kind = kind
        self.worker_traceback = worker_traceback


class ObsError(ReproError):
    """Raised by the observability layer (``repro.obs``) for metric
    type/name conflicts, histogram bucket mismatches on merge, and
    malformed tracer usage."""


class LintError(ReproError):
    """Raised by the static analyzer's infrastructure (not by rule
    findings): unreadable source or baseline files, malformed
    suppression comments, or an unknown rule id in a suppression."""


class ClusterError(ReproError):
    """Raised by the distributed-execution simulator for protocol
    violations, e.g. a message addressed to a vertex nobody owns."""


class FaultError(ClusterError):
    """Base class for injected-fault failures in the cluster
    simulator: errors that model a *machine* misbehaving rather than a
    caller misusing the API."""


class NodeCrashError(FaultError):
    """Raised when a simulated node crash cannot be recovered from —
    no checkpoint to replay, or no surviving node left to take over
    the dead node's vertices."""


class MessageTimeoutError(FaultError):
    """Raised when the reliable-delivery layer exhausts its capped
    retransmission budget without getting a message through."""
