"""Core walker-centric engine — the paper's primary contribution.

Exports the programming model (:class:`WalkerProgram`), configuration
(:class:`WalkConfig`), and the single-process engine
(:class:`WalkEngine`); the distributed engine lives in
:mod:`repro.cluster`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    config=("DEFAULT_WALK_LENGTH", "WalkConfig"),
    engine=("WalkEngine", "WalkResult"),
    program=("StateQuery", "WalkerProgram"),
    snapshot=("restore_checkpoint", "save_checkpoint"),
    stats=("TerminationBreakdown", "WalkStats"),
    trace=("PathRecorder",),
    walker=("NO_VERTEX", "WalkerSet", "WalkerView"),
)
