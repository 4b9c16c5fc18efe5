"""Walker state storage.

KnightKing's computation model is walker-centric: the engine tracks,
for every walker, its current residing vertex, the previous vertex (the
one-step history that second-order algorithms consult), and the number
of steps taken.  Algorithms may attach custom per-walker state (e.g.
Meta-path stores each walker's assigned scheme id).

State lives in structure-of-arrays form (:class:`WalkerSet`) so the
vectorised kernels can operate on thousands of walkers per numpy call;
:class:`WalkerView` wraps one index of those arrays with attribute
access for the scalar (user-extensible) code path, mirroring the ``w``
argument of the paper's API (Figure 4).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProgramError

__all__ = ["WalkerSet", "WalkerView", "NO_VERTEX"]

# previous-vertex sentinel before the first move (w.step == 0 in the
# paper's node2vec sample code).
NO_VERTEX = -1


class WalkerSet:
    """Structure-of-arrays store for all walkers of one execution.

    ``history_depth`` extends the one-step memory the paper's
    second-order algorithms need to the "previous n vertices visited"
    of its unified definition (section 2.2): with depth k, the walker's
    last k stops are kept in ``history`` (column 0 the most recent,
    i.e. ``history[:, 0] == previous``).  Depth 1 stores nothing extra
    — ``previous`` covers it.
    """

    def __init__(
        self, start_vertices: np.ndarray, history_depth: int = 1
    ) -> None:
        if history_depth < 1:
            raise ProgramError("history_depth must be at least 1")
        starts = np.asarray(start_vertices, dtype=np.int64)
        count = starts.size
        self.current = starts.copy()
        self.previous = np.full(count, NO_VERTEX, dtype=np.int64)
        self.steps = np.zeros(count, dtype=np.int64)
        self.alive = np.ones(count, dtype=bool)
        self.history_depth = int(history_depth)
        self.history = (
            np.full((count, history_depth), NO_VERTEX, dtype=np.int64)
            if history_depth > 1
            else None
        )
        self._custom: dict[str, np.ndarray] = {}

    @property
    def num_walkers(self) -> int:
        return self.current.size

    @property
    def num_active(self) -> int:
        return int(np.count_nonzero(self.alive))

    def active_ids(self) -> np.ndarray:
        """Indices of walkers still walking."""
        return self.alive.nonzero()[0]

    # ------------------------------------------------------------------
    # Custom per-walker state
    # ------------------------------------------------------------------
    def add_state(self, name: str, values: np.ndarray) -> None:
        """Attach a named per-walker state array (one entry/walker)."""
        values = np.asarray(values)
        if values.shape[0] != self.num_walkers:
            raise ProgramError(
                f"state {name!r} must have one entry per walker"
            )
        self._custom[name] = values

    def state(self, name: str) -> np.ndarray:
        try:
            return self._custom[name]
        except KeyError as exc:
            raise ProgramError(f"no walker state named {name!r}") from exc

    def has_state(self, name: str) -> bool:
        return name in self._custom

    @property
    def state_names(self) -> list[str]:
        """Names of the attached custom state arrays, in attach order."""
        return list(self._custom)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def move(self, walker_ids: np.ndarray, new_vertices: np.ndarray) -> None:
        """Advance walkers one step: previous <- current <- target."""
        left = self.current[walker_ids]
        if self.history is not None:
            self.history[walker_ids, 1:] = self.history[walker_ids, :-1]
            self.history[walker_ids, 0] = left
        self.previous[walker_ids] = left
        self.current[walker_ids] = new_vertices
        self.steps[walker_ids] += 1

    def recent_vertices(self, walker_id: int) -> np.ndarray:
        """The walker's last ``history_depth`` stops, most recent first
        (:data:`NO_VERTEX` padding before enough steps were taken)."""
        if self.history is not None:
            return self.history[walker_id]
        return self.previous[walker_id : walker_id + 1]

    def kill(self, walker_ids: np.ndarray) -> None:
        """Terminate walkers (their walk is complete)."""
        self.alive[walker_ids] = False

    def view(self, walker_id: int) -> "WalkerView":
        return WalkerView(self, int(walker_id))


class WalkerView:
    """Scalar window onto one walker's slots in a :class:`WalkerSet`.

    This is the object handed to user-defined ``edge_dynamic_comp`` and
    friends; attribute names follow the paper's sample code
    (``w.prev``, ``w.step``).
    """

    __slots__ = ("_walkers", "walker_id")

    def __init__(self, walkers: WalkerSet, walker_id: int) -> None:
        self._walkers = walkers
        self.walker_id = walker_id

    @property
    def current(self) -> int:
        """The walker's current residing vertex."""
        return int(self._walkers.current[self.walker_id])

    @property
    def prev(self) -> int:
        """The previous vertex visited (:data:`NO_VERTEX` before the
        first move)."""
        return int(self._walkers.previous[self.walker_id])

    @property
    def step(self) -> int:
        """Number of steps taken so far."""
        return int(self._walkers.steps[self.walker_id])

    @property
    def recent(self) -> np.ndarray:
        """The last ``history_depth`` vertices visited, most recent
        first (for programs of order > 2)."""
        return self._walkers.recent_vertices(self.walker_id)

    @property
    def alive(self) -> bool:
        return bool(self._walkers.alive[self.walker_id])

    def state(self, name: str) -> object:
        """Read this walker's entry of a named custom state array."""
        return self._walkers.state(name)[self.walker_id]

    def set_state(self, name: str, value: object) -> None:
        """Write this walker's entry of a named custom state array."""
        self._walkers.state(name)[self.walker_id] = value

    def __repr__(self) -> str:
        return (
            f"WalkerView(id={self.walker_id}, at={self.current}, "
            f"prev={self.prev}, step={self.step}, alive={self.alive})"
        )
