"""Walk path recording.

Algorithms like DeepWalk and node2vec consume the *sequences* a walk
produces (each walker's vertex path becomes a "sentence" for skip-gram
training), so the engine can optionally record every move.

The step that moves a walker also writes its token, so nothing is
replayed afterwards.  A bounded walk owns one dense ``(num_walkers,
max_steps + 1)`` token matrix and a per-walker move count; an unbounded
one (``max_steps is None``: PPR's heavy tail) keeps a flat append-only
token log instead, O(total moves) rather than O(walkers x longest
walk), grouped by one stable argsort when paths are read.  Tokens are
int32 whenever every vertex and walker id fits (:func:`token_dtype`).
Python loops here iterate rows or iterations, never moves
(docs/INTERNALS.md, "Path recording").
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import islice

import numpy as np

from repro._index import index_dtype
from repro._textblock import decimal, join_columns

__all__ = [
    "BLOCK_ROWS",
    "PathRecorder",
    "split_paths",
    "token_dtype",
    "write_walks",
]

# Walks formatted per write.  A constant, not an option: the only thing
# it trades is the fixed cost per block (one id table, a dozen array
# passes) against the text held at once.  The 12 000 x 81 corpus takes
# 77 ms in 512-row blocks, 40 ms at 2 048, 34 ms at 4 096 and 34 ms in
# one piece; ~1 MB of text per block buys all but the last 6 ms.
BLOCK_ROWS = 2048


def token_dtype(num_vertices: int, num_walkers: int) -> np.dtype:
    """The narrowest integer type a recorder needs: int32 while every
    vertex id and walker id is below 2**31, else int64.  Half the bytes
    of every recorded path, shard hand-off and checkpoint."""
    return index_dtype(max(num_vertices, num_walkers))


def write_walks(handle, walks: Iterable[Sequence[int]]) -> None:
    """Write one whitespace-separated walk per line — the one corpus
    formatter; :func:`repro.analysis.load_corpus` reads it back.  Rows
    are formatted :data:`BLOCK_ROWS` at a time (``repro._textblock``),
    so a |V|-walker flush holds one block of text, not the corpus."""
    rows = iter(walks)
    while block := list(islice(rows, BLOCK_ROWS)):
        lengths = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
        tokens = np.concatenate(block, dtype=np.int64, casting="unsafe")
        # One slot per token; a walk without tokens still ends in a
        # newline, so it gets one too: a placeholder 0, blanked below.
        last = np.cumsum(np.maximum(lengths, 1)) - 1  # each walk's final slot
        holes = last[lengths == 0]
        words = decimal(np.insert(tokens, holes - np.arange(holes.size), 0))
        words[holes] = 0
        ends = np.full(len(words), ord(" "), dtype=np.uint8)
        ends[last] = ord("\n")
        handle.write(join_columns([words], [ends]))


def split_paths(tokens: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Per-walker views into a :meth:`PathRecorder.packed` pair: rows
    of the matrix, or slices of the walker-major flat token array, each
    ``counts[i] + 1`` long."""
    sizes = (counts + 1).tolist()
    if tokens.ndim == 2:
        return [row[:size] for row, size in zip(tokens, sizes)]
    stops = np.cumsum(counts + 1).tolist()
    return [tokens[stop - size : stop] for stop, size in zip(stops, sizes)]


class PathRecorder:
    """Records every walker's vertex sequence, starts included.

    ``counts`` (moves per walker) always equals ``walkers.steps``: every
    move goes through the engine's ``moves`` event.  With ``stream_to`` the
    sequences go to a corpus file instead, each ``kills`` batch as it
    happens — termination order (skip-gram shuffles anyway).  Tokens
    (and the log's walker ids) are ``dtype``; the engine passes
    :func:`token_dtype` of its graph.
    """

    def __init__(
        self,
        start_vertices: np.ndarray,
        max_steps: int | None = None,
        stream_to=None,
        dtype: np.dtype = np.dtype(np.int64),
    ) -> None:
        starts = np.asarray(start_vertices, dtype=np.int64)
        self._dtype = np.dtype(dtype)
        self._counts = np.zeros(starts.size, dtype=np.int64)
        if max_steps is not None:
            self._matrix = np.zeros((starts.size, max_steps + 1), dtype=self._dtype)
            self._matrix[:, 0] = starts
        else:
            # Log rows: walker id, token.  Starts are its first entries.
            self._matrix = None
            self._log = np.stack([np.arange(starts.size), starts], dtype=self._dtype)
            self._used = starts.size
        self._written = np.zeros(starts.size, dtype=bool)
        self._handle = (
            None if stream_to is None else open(stream_to, "w", encoding="ascii")
        )

    @property
    def lines_written(self) -> int:
        return int(self._written.sum())

    def record_moves(self, walker_ids: np.ndarray, vertices: np.ndarray) -> None:
        """Record one batch of moves (each walker at most once)."""
        if not len(walker_ids):
            return
        # One gather and one scatter of the counts; the new count is
        # the column of the token it counts.
        counts = self._counts[walker_ids] + 1
        self._counts[walker_ids] = counts
        if self._matrix is not None:
            self._matrix[walker_ids, counts] = vertices
        else:
            used, self._used = self._used, self._used + len(walker_ids)
            if self._used > self._log.shape[1]:
                spare = np.empty((2, self._used), dtype=self._dtype)
                self._log = np.concatenate([self._log[:, :used], spare], axis=1)
            self._log[0, used : self._used] = walker_ids
            self._log[1, used : self._used] = vertices

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tokens, counts)`` for :func:`split_paths`: the live matrix
        (no copy), or the log regrouped walker-major."""
        if self._matrix is not None:
            return self._matrix, self._counts
        ids, tokens = self._log[:, : self._used]
        return tokens[np.argsort(ids, kind="stable")], self._counts

    def restore(self, tokens: np.ndarray, counts: np.ndarray) -> None:
        """Load a :meth:`packed` pair back (checkpoint resume), of any
        integer type — an int64 pair written before tokens narrowed
        included; ``ValueError`` if it was packed under the other layout
        or holds an id this recorder's type cannot."""
        limits = np.iinfo(self._dtype)
        if tokens.size and not limits.min <= tokens.min() <= tokens.max() <= limits.max:
            raise ValueError(f"packed paths hold ids beyond {self._dtype}")
        self.rewind(counts)
        if self._matrix is not None and tokens.shape == self._matrix.shape:
            self._matrix[:] = tokens
        elif self._matrix is None and tokens.shape == (self._used,):
            ids = np.repeat(np.arange(counts.size), counts + 1)
            self._log = np.stack([ids, tokens], dtype=self._dtype)
        else:
            raise ValueError(f"packed paths of shape {tokens.shape} do not fit")

    def rewind(self, counts: np.ndarray) -> None:
        """Roll back to when ``counts`` was the count vector (crash
        recovery).  Matrix tokens past a count are stale and the replay
        overwrites them; the log is append-only, so truncating it to
        the tokens counted then is exact."""
        self._counts[:] = counts
        if self._matrix is None:
            self._used = counts.size + int(self._counts.sum())

    def paths(self) -> list[np.ndarray]:
        """Per-walker vertex sequences (views): a walker that took
        ``k`` steps yields ``k + 1`` vertices."""
        return split_paths(*self.packed())

    def as_corpus(self) -> list[list[int]]:
        """Paths as plain lists of ints (skip-gram training input)."""
        return [path.tolist() for path in self.paths()]

    def finish(self, complete: bool) -> list[np.ndarray] | None:
        """In-memory paths; ``None`` when streaming (a complete run closes the file)."""
        if self._handle is None:
            return self.paths()
        if complete:
            self.close()
        return None

    def flush_finished(self, walker_ids: np.ndarray) -> None:
        """Write the rows of walkers that just terminated (streaming a
        bounded walk only: the log has no rows until ``close`` sorts it)."""
        if self._handle is None or self._matrix is None:
            return
        walker_ids = walker_ids[~self._written[walker_ids]]
        self._written[walker_ids] = True
        sizes = (self._counts[walker_ids] + 1).tolist()
        write_walks(
            self._handle,
            (self._matrix[w, :size] for w, size in zip(walker_ids.tolist(), sizes)),
        )

    # The engine events this recorder subscribes to (WalkEngine.observe).
    on_moves = record_moves
    on_kills = flush_finished

    def close(self) -> None:
        """Write any remaining (interrupted) walkers and close."""
        if self._handle is None or self._handle.closed:
            return
        paths = self.paths()
        write_walks(self._handle, (paths[w] for w in np.flatnonzero(~self._written)))
        self._written[:] = True
        self._handle.close()

    def __enter__(self) -> "PathRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
