"""Output verifier, independent of the code under test.

Edge membership is the verifier's own sorted-key ``searchsorted`` over
the input edges — not ``CSRGraph.has_edges_batch``, which the walk
engines themselves rely on.  Every check returns a list of problems
(empty means the output is accepted) so the harness can report all of
them and count the job as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inputs import directed_keys

__all__ = [
    "EdgeIndex",
    "WalkCheck",
    "check_walks",
    "chunks_of_corpus",
    "chunks_of_paths",
    "flatten_paths",
    "read_corpus",
]

_EMPTY = np.zeros(0, dtype=np.int64)


class EdgeIndex:
    """Sorted directed-edge keys of one input graph, with an optional
    overlay of edges inserted and deleted since (dynamic graphs)."""

    def __init__(
        self,
        num_vertices: int,
        keys: np.ndarray,
        inserted: np.ndarray = _EMPTY,
        deleted: np.ndarray = _EMPTY,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self._keys = keys
        self._inserted = inserted
        self._deleted = deleted

    @classmethod
    def from_csr_arrays(cls, offsets: np.ndarray, targets: np.ndarray) -> "EdgeIndex":
        num_vertices = int(offsets.size - 1)
        sources = np.repeat(
            np.arange(num_vertices, dtype=np.int64), np.diff(offsets)
        )
        keys = directed_keys(num_vertices, sources, targets)
        return cls(num_vertices, np.unique(keys))

    def overlaid(self, inserted: np.ndarray, deleted: np.ndarray) -> "EdgeIndex":
        """The same base graph after the given sorted key changes."""
        return EdgeIndex(self.num_vertices, self._keys, inserted, deleted)

    @staticmethod
    def _member(sorted_keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
        if sorted_keys.size == 0:
            return np.zeros(wanted.size, dtype=bool)
        position = np.searchsorted(sorted_keys, wanted)
        position[position == sorted_keys.size] = sorted_keys.size - 1
        return sorted_keys[position] == wanted

    def contains(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        in_range = (
            (sources >= 0)
            & (sources < self.num_vertices)
            & (targets >= 0)
            & (targets < self.num_vertices)
        )
        # Walks revisit edges: look each distinct hop up once, in
        # sorted order (random probes into the key array are slower
        # than the sort).
        wanted, inverse = np.unique(
            directed_keys(self.num_vertices, sources, targets), return_inverse=True
        )
        present = self._member(self._keys, wanted) & ~self._member(
            self._deleted, wanted
        )
        present |= self._member(self._inserted, wanted)
        return in_range & present[inverse]


def flatten_paths(paths) -> tuple[np.ndarray, np.ndarray]:
    """(all tokens, tokens per walk) of a list of per-walker arrays."""
    lengths = np.fromiter((len(path) for path in paths), dtype=np.int64)
    if lengths.size == 0:
        return _EMPTY, lengths
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in paths]), lengths


def read_corpus(path) -> tuple[np.ndarray, np.ndarray]:
    """(all tokens, tokens per line) of a walk corpus text file."""
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    lengths = np.fromiter(
        (len(line.split()) for line in text.splitlines()), dtype=np.int64
    )
    # Text-mode parse straight into an array: a million Python strings
    # would cost more memory than the program being measured.  Raises
    # ValueError on a token that is not an integer.
    tokens = np.fromstring(text, dtype=np.int64, sep=" ")
    return tokens, lengths


# Walks are checked a few thousand at a time: the temporaries then stay
# small enough for the allocator to reuse, where whole-corpus arrays
# (tens of MB, freshly mapped each time) made checking slower than
# walking.
CHUNK_WALKS = 2048


def chunks_of_paths(paths, size: int = CHUNK_WALKS):
    """(tokens, lengths) chunks of a list of per-walker arrays."""
    for low in range(0, len(paths), size):
        yield flatten_paths(paths[low : low + size])


def chunks_of_corpus(tokens: np.ndarray, lengths: np.ndarray, size: int = CHUNK_WALKS):
    """(tokens, lengths) chunks of an already flat corpus."""
    if int(lengths.sum()) != tokens.size:
        # Lines and tokens disagree: one chunk, which check_walks
        # reports as a mismatch.
        yield tokens, lengths
        return
    bounds = np.r_[0, np.cumsum(lengths)]
    for low in range(0, lengths.size, size):
        high = min(low + size, lengths.size)
        yield tokens[bounds[low] : bounds[high]], lengths[low:high]


@dataclass
class WalkCheck:
    problems: list[str]
    digest: str  # order-insensitive, informational
    walks: int


def check_walks(
    chunks, expected_starts: np.ndarray, walk_length: int, edges: EdgeIndex
) -> WalkCheck:
    """Walk count, tokens per walk, start multiset, every hop an edge."""
    walks = short = forged = 0
    first_short = first_forged = ""
    mismatch = False
    starts = []
    digest = np.uint64(0)
    for tokens, lengths in chunks:
        wrong = np.flatnonzero(lengths != walk_length + 1)
        if wrong.size and not short:
            first_short = (
                f"walk {walks + int(wrong[0])} has {int(lengths[wrong[0]])}"
            )
        short += wrong.size
        walks += lengths.size
        if int(lengths.sum()) != tokens.size:
            mismatch = True
            continue
        lengths_here = lengths[lengths > 0]
        first = np.r_[0, np.cumsum(lengths_here)[:-1]]
        starts.append(tokens[first])
        hop = np.ones(tokens.size, dtype=bool)
        hop[first + lengths_here - 1] = False
        hop = np.flatnonzero(hop)
        bad = ~edges.contains(tokens[hop], tokens[hop + 1])
        if bad.any() and not forged:
            where = int(hop[np.flatnonzero(bad)[0]])
            first_forged = f"{int(tokens[where])} -> {int(tokens[where + 1])}"
        forged += int(bad.sum())
        with np.errstate(over="ignore"):
            digest += _digest_sum(tokens, lengths_here, first)

    problems = []
    if walks != expected_starts.size:
        problems.append(f"{walks} walks, expected {expected_starts.size}")
    if short:
        problems.append(
            f"{short} walks do not have {walk_length + 1} tokens "
            f"(first: {first_short})"
        )
    if mismatch:
        problems.append("token count does not match the walk lengths")
    seen = np.sort(np.concatenate(starts)) if starts else _EMPTY
    if not np.array_equal(seen, np.sort(expected_starts)):
        problems.append("start vertices differ from the requested multiset")
    if forged:
        problems.append(
            f"{forged} hops are not input edges (first: {first_forged})"
        )
    return WalkCheck(problems, f"{int(digest):016x}", walks)


def _digest_sum(tokens: np.ndarray, lengths: np.ndarray, first: np.ndarray):
    """Wrapping sum of per-walk hashes (each hash mixes every token
    with its position), so the digest ignores the order of walks."""
    if tokens.size == 0:
        return np.uint64(0)
    position = np.arange(tokens.size, dtype=np.uint64) - np.repeat(
        first.astype(np.uint64), lengths
    )
    mixed = tokens.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    mixed = (mixed ^ (mixed >> np.uint64(31))) * (
        (position << np.uint64(1)) + np.uint64(0xBF58476D1CE4E5B9)
    )
    mixed ^= mixed >> np.uint64(29)
    per_walk = np.add.reduceat(mixed, first)
    per_walk = (per_walk ^ (per_walk >> np.uint64(32))) * np.uint64(
        0x94D049BB133111EB
    )
    return per_walk.sum(dtype=np.uint64)
