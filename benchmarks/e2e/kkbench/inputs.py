"""Deterministic input generators: everything a run draws comes from ``--seed``.

The dataset stand-ins themselves are fixed (LiveJournal is LiveJournal
whatever the seed); the seed decides every walk seed, start vertex,
request order, arrival time and churn edge.  Generators are written so
that the *amount* of work does not depend on the seed: the request mix
is a fixed block, arrivals are paced, and churn never creates a dead
end — so step and request counts repeat exactly and runs with
different seeds are comparable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChurnBatch",
    "ChurnStream",
    "MIX_BLOCK",
    "RequestClass",
    "RequestSpec",
    "arrival_offsets",
    "build_churn_stream",
    "derive_seed",
    "directed_keys",
    "request_block",
]


def derive_seed(seed: int, *path) -> int:
    """A 31-bit seed for the stream named by ``path`` under ``seed``."""
    key = tuple(
        zlib.crc32(part.encode("ascii")) if isinstance(part, str) else int(part)
        for part in path
    )
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return int(sequence.generate_state(1)[0] & 0x7FFFFFFF)


def directed_keys(num_vertices: int, sources, targets) -> np.ndarray:
    """One int64 key per directed edge: ``source * |V| + target``."""
    return np.asarray(sources, dtype=np.int64) * num_vertices + np.asarray(
        targets, dtype=np.int64
    )


# ----------------------------------------------------------------------
# Request mix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestClass:
    name: str
    algorithm: str  # "deepwalk" | "node2vec"
    walkers: int
    length: int


SMALL = RequestClass("small", "deepwalk", 64, 40)
MEDIUM = RequestClass("medium", "node2vec", 256, 80)
LARGE = RequestClass("large", "deepwalk", 2048, 80)

# The heavy-tail mix, 80% / 15% / 5%, laid out as one block of 20 in a
# fixed order: the large request first, the medium ones spread out
# behind it.  Every block therefore carries the same work and the same
# neighbours whatever the seed.  (Shuffling the order per seed was tried
# first: which requests landed beside the large one then moved the tail
# latency by +-40% from seed to seed, and no bound could tell that from
# a regression.)
MIX_BLOCK = tuple(
    LARGE if slot == 0 else MEDIUM if slot in (7, 12, 17) else SMALL
    for slot in range(20)
)


@dataclass(frozen=True)
class RequestSpec:
    index: int
    cls: RequestClass
    walk_seed: int
    starts: np.ndarray

    @property
    def expected_steps(self) -> int:
        return self.cls.walkers * self.cls.length


def request_block(
    seed: int, block: int, num_vertices: int, mix=MIX_BLOCK
) -> list[RequestSpec]:
    """The ``block``-th block of the request stream under ``seed``:
    the mix in its fixed order, with seeded walks and start vertices."""
    rng = np.random.default_rng(derive_seed(seed, "mix", block))
    specs = []
    for slot, cls in enumerate(mix):
        index = block * len(mix) + slot
        specs.append(
            RequestSpec(
                index=index,
                cls=cls,
                walk_seed=derive_seed(seed, "request", index),
                starts=rng.integers(
                    0, num_vertices, size=cls.walkers, dtype=np.int64
                ),
            )
        )
    return specs


# How far into its slot a request may be sent, as a share of the slot.
ARRIVAL_JITTER = 0.25


def arrival_offsets(seed: int, block: int, rate: float, count: int) -> np.ndarray:
    """Open-loop send times of one block of ``count`` requests: one
    request per slot of ``1 / rate`` seconds, sent up to a quarter slot
    late (seeded).

    A paced open loop, not a Poisson one: requests are still sent on
    schedule whether or not earlier ones were answered, but every seed
    offers the same count at the same pace.  (Poisson arrivals were
    tried first: with the ~100 requests a run has time for, the arrival
    draw alone moved p50 and p90 by more than any bound from seed to
    seed.)
    """
    rng = np.random.default_rng(derive_seed(seed, "arrivals", block))
    jitter = rng.uniform(0.0, ARRIVAL_JITTER, size=count)
    return (np.arange(count) + jitter) / rate


# ----------------------------------------------------------------------
# Churn stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnBatch:
    """One update batch as canonical (u < v) endpoint arrays."""

    inserts: np.ndarray  # (k, 2)
    insert_weights: np.ndarray
    deletes: np.ndarray  # (k, 2)
    reweights: np.ndarray  # (k, 2)
    reweight_weights: np.ndarray

    def __len__(self) -> int:
        return len(self.inserts) + len(self.deletes) + len(self.reweights)


@dataclass(frozen=True)
class ChurnStream:
    num_vertices: int
    batches: tuple[ChurnBatch, ...]

    def directed_changes(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted directed keys (inserted, deleted) by the first
        ``upto`` batches — what the verifier overlays on the base graph."""
        n = self.num_vertices
        inserted = [np.zeros(0, dtype=np.int64)]
        deleted = [np.zeros(0, dtype=np.int64)]
        for batch in self.batches[:upto]:
            for pairs, sink in ((batch.inserts, inserted), (batch.deletes, deleted)):
                sink.append(directed_keys(n, pairs[:, 0], pairs[:, 1]))
                sink.append(directed_keys(n, pairs[:, 1], pairs[:, 0]))
        return np.sort(np.concatenate(inserted)), np.sort(np.concatenate(deleted))


def _occurrence_rank(values: np.ndarray) -> np.ndarray:
    """For each element, how many equal elements precede it."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, ordered.size])
    rank = np.empty(values.size, dtype=np.int64)
    rank[order] = np.arange(values.size) - np.repeat(starts, sizes)
    return rank


def build_churn_stream(
    offsets: np.ndarray,
    targets: np.ndarray,
    seed: int,
    num_batches: int,
    batch_size: int = 100,
    weight_low: float = 1.0,
    weight_high: float = 5.0,
) -> ChurnStream:
    """A follow/unfollow/reweight stream over an undirected CSR graph.

    Vectorised end to end (``repro``'s own ``generate_churn_batches``
    re-sorts the edge set per update and would dominate set-up).  Each
    batch is 40% inserts of fresh pairs, 30% deletes and 30% reweights
    of distinct existing edges.  No update can fail and no walk can
    hit a dead end: deleted and reweighted edges are drawn without
    replacement from edges stored once, deleted edges only where both
    endpoints have degree >= 6 and at most two deletes touch a vertex,
    inserted pairs are absent from the base graph and never deleted.
    """
    num_vertices = int(offsets.size - 1)
    rng = np.random.default_rng(derive_seed(seed, "churn"))
    degrees = np.diff(offsets)
    sources = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    canonical = sources < targets
    keys, counts = np.unique(
        directed_keys(num_vertices, sources[canonical], targets[canonical]),
        return_counts=True,
    )
    stored_once = keys[counts == 1]
    stored_once = stored_once[rng.permutation(stored_once.size)]
    u, v = stored_once // num_vertices, stored_once % num_vertices

    per_insert = int(round(batch_size * 0.4))
    per_delete = int(round(batch_size * 0.3))
    per_reweight = batch_size - per_insert - per_delete

    sturdy = (degrees[u] >= 6) & (degrees[v] >= 6)
    # Endpoints interleaved (u0 v0 u1 v1 ...) so an edge is judged by
    # how many earlier edges touched either of its ends.
    rank = _occurrence_rank(np.stack([u[sturdy], v[sturdy]], axis=1).ravel())
    deletable = np.flatnonzero(sturdy)[(rank[0::2] < 2) & (rank[1::2] < 2)]
    delete_pool = deletable[: per_delete * num_batches]
    rest = np.ones(stored_once.size, dtype=bool)
    rest[delete_pool] = False
    reweight_pool = np.flatnonzero(rest)[: per_reweight * num_batches]

    wanted = per_insert * num_batches
    a = rng.integers(0, num_vertices, size=2 * wanted + 64, dtype=np.int64)
    b = rng.integers(0, num_vertices, size=a.size, dtype=np.int64)
    low, high = np.minimum(a, b), np.maximum(a, b)
    fresh_keys = directed_keys(num_vertices, low, high)
    position = np.searchsorted(keys, fresh_keys)
    present = keys[np.minimum(position, keys.size - 1)] == fresh_keys
    fresh_keys = fresh_keys[(low != high) & ~present]
    _, first_seen = np.unique(fresh_keys, return_index=True)
    insert_keys = fresh_keys[np.sort(first_seen)][:wanted]

    if (
        delete_pool.size < per_delete * num_batches
        or reweight_pool.size < per_reweight * num_batches
        or insert_keys.size < wanted
    ):
        raise ValueError(
            f"graph too small for {num_batches} churn batches of {batch_size}"
        )

    def pairs(indices: np.ndarray) -> np.ndarray:
        return np.stack([u[indices], v[indices]], axis=1)

    insert_pairs = np.stack(
        [insert_keys // num_vertices, insert_keys % num_vertices], axis=1
    )
    batches = []
    for i in range(num_batches):
        batches.append(
            ChurnBatch(
                inserts=insert_pairs[i * per_insert : (i + 1) * per_insert],
                insert_weights=rng.uniform(weight_low, weight_high, per_insert),
                deletes=pairs(delete_pool[i * per_delete : (i + 1) * per_delete]),
                reweights=pairs(
                    reweight_pool[i * per_reweight : (i + 1) * per_reweight]
                ),
                reweight_weights=rng.uniform(weight_low, weight_high, per_reweight),
            )
        )
    return ChurnStream(num_vertices=num_vertices, batches=tuple(batches))
