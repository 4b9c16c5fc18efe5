"""Core walker-centric engine — the paper's primary contribution.

Exports the programming model (:class:`WalkerProgram`), configuration
(:class:`WalkConfig`), and the single-process engine
(:class:`WalkEngine`); the distributed engine lives in
:mod:`repro.cluster`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import DEFAULT_WALK_LENGTH, WalkConfig
    from repro.core.engine import WalkEngine, WalkResult
    from repro.core.program import StateQuery, WalkerProgram
    from repro.core.snapshot import restore_checkpoint, save_checkpoint
    from repro.core.stats import TerminationBreakdown, WalkStats
    from repro.core.trace import PathRecorder
    from repro.core.walker import NO_VERTEX, WalkerSet, WalkerView

__all__ = [
    "WalkConfig",
    "DEFAULT_WALK_LENGTH",
    "WalkEngine",
    "WalkResult",
    "WalkerProgram",
    "StateQuery",
    "WalkStats",
    "TerminationBreakdown",
    "PathRecorder",
    "WalkerSet",
    "WalkerView",
    "NO_VERTEX",
    "save_checkpoint",
    "restore_checkpoint",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    config=("DEFAULT_WALK_LENGTH", "WalkConfig"),
    engine=("WalkEngine", "WalkResult"),
    program=("StateQuery", "WalkerProgram"),
    snapshot=("restore_checkpoint", "save_checkpoint"),
    stats=("TerminationBreakdown", "WalkStats"),
    trace=("PathRecorder",),
    walker=("NO_VERTEX", "WalkerSet", "WalkerView"),
)
