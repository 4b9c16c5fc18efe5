"""Dynamic graphs: epoch-snapshot isolation over the immutable CSR.

KnightKing's engines assume a static :class:`~repro.graph.csr.CSRGraph`
whose arrays never move under a running walk.  This module keeps that
invariant while supporting live edge streams, by separating *mutation*
from *visibility*:

* a :class:`DynamicGraph` wraps a base CSR with a per-vertex **delta
  buffer** (copy-on-write adjacency overlays);
* :meth:`DynamicGraph.commit` applies one
  :class:`UpdateBatch` (insert / delete / reweight) and advances a
  monotonically numbered **epoch**;
* :meth:`DynamicGraph.snapshot` materialises the current epoch into an
  immutable :class:`EpochSnapshot` — a real ``CSRGraph`` plus
  incrementally maintained alias tables — that running walks pin and
  later commits can never perturb (snapshot isolation by
  immutability).  The CSR and the tables of an epoch are each *the
  previous materialised epoch's plus the touched set* (untouched
  stretches block-copied, touched slices rebuilt).  The owner keeps
  only the newest epoch; a superseded one lives as long as a walk
  holds its snapshot;
* :meth:`DynamicGraph.compact` folds the delta buffer back into the
  base CSR, bounding overlay growth.

Durability comes from a write-ahead log
(:class:`~repro.graph.wal.WriteAheadLog`): every batch is logged and
flushed *before* it is applied, so :meth:`DynamicGraph.recover` lands
exactly on the last committed epoch after a crash — a torn tail (the
partial record of the batch being written when the process died) is
truncated and reported, never replayed.  A durably compacted base
(:meth:`DynamicGraph.save_compacted`) carries its epoch id, and
recovery skips WAL records the base already folded in, which makes the
base-write and log-truncate steps individually crash-safe without
needing cross-file atomicity.

Alias-table maintenance is incremental and **self-verifying**: per
epoch, only touched vertices' tables are rebuilt (see
:mod:`repro.sampling.tables` for why that is bit-exact), and an
optional verification mode re-derives sampled vertices from scratch,
counts any mismatch, and falls back to a full rebuild — the tables a
walk sees are never silently wrong.  A program's Q(v) / L(v) are
derived per engine, as on a static graph
(:meth:`~repro.graph.prepared.PreparedGraph.bounds_for`).
"""

from __future__ import annotations

import bisect
import os
import struct
import threading
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GraphError, WalError
from repro.graph.csr import CSRGraph
from repro.graph.prepared import PreparedGraph
from repro.sampling.alias import VertexAliasTables
from repro.sampling.tables import (
    MaintenanceStats,
    copy_untouched_runs,
    slice_indices,
)

if TYPE_CHECKING:  # a graph without a log never loads the log's code
    from repro.graph.wal import WalRecoveryReport, WriteAheadLog

__all__ = [
    "DynamicGraph",
    "DynamicGraphStats",
    "EdgeUpdate",
    "EpochSnapshot",
    "UpdateBatch",
    "generate_churn_batches",
    "parse_update_stream",
]

INSERT, DELETE, REWEIGHT = 0, 1, 2
_KIND_NAMES = {INSERT: "insert", DELETE: "delete", REWEIGHT: "reweight"}
_KIND_CODES = {name: code for code, name in _KIND_NAMES.items()}

_BATCH_HEADER = struct.Struct("<I")

# Touched vertices probed per table build under ``verify="sample"``.
VERIFY_SAMPLES = 8


@dataclass(frozen=True)
class EdgeUpdate:
    """One logical edge mutation.

    ``kind`` is ``"insert"``, ``"delete"``, or ``"reweight"``; on
    undirected graphs the mutation applies to both stored directions,
    matching :class:`~repro.graph.builder.GraphBuilder` semantics.
    """

    kind: str
    source: int
    target: int
    weight: float = 1.0
    edge_type: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise GraphError(f"unknown update kind {self.kind!r}")


@dataclass(frozen=True)
class UpdateBatch:
    """A batch of edge updates committed as one epoch.

    Stored as parallel arrays so batches serialize to the write-ahead
    log and apply without per-edge Python objects.
    """

    kinds: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    edge_types: np.ndarray

    def __len__(self) -> int:
        return int(self.kinds.size)

    @classmethod
    def from_updates(cls, updates: list[EdgeUpdate] | tuple) -> "UpdateBatch":
        rows = [
            (_KIND_CODES[u.kind], u.source, u.target, u.weight, u.edge_type)
            for u in updates
        ]
        dtypes = (np.uint8, np.int64, np.int64, np.float64, np.int32)
        columns = zip(*rows) if rows else ((),) * 5
        return cls(*(np.array(c, dtype=d) for c, d in zip(columns, dtypes)))

    def updates(self) -> list[EdgeUpdate]:
        return [
            EdgeUpdate(
                kind=_KIND_NAMES[int(self.kinds[i])],
                source=int(self.sources[i]),
                target=int(self.targets[i]),
                weight=float(self.weights[i]),
                edge_type=int(self.edge_types[i]),
            )
            for i in range(len(self))
        ]

    def to_bytes(self) -> bytes:
        return b"".join(
            [
                _BATCH_HEADER.pack(len(self)),
                np.ascontiguousarray(self.kinds).tobytes(),
                np.ascontiguousarray(self.sources).tobytes(),
                np.ascontiguousarray(self.targets).tobytes(),
                np.ascontiguousarray(self.weights).tobytes(),
                np.ascontiguousarray(self.edge_types).tobytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "UpdateBatch":
        if len(blob) < _BATCH_HEADER.size:
            raise WalError("truncated update-batch payload")
        (count,) = _BATCH_HEADER.unpack_from(blob)
        sizes = [count, count * 8, count * 8, count * 8, count * 4]
        if len(blob) != _BATCH_HEADER.size + sum(sizes):
            raise WalError("update-batch payload has the wrong length")
        cursor = _BATCH_HEADER.size
        parts = []
        for size, dtype in zip(
            sizes, (np.uint8, np.int64, np.int64, np.float64, np.int32)
        ):
            parts.append(
                np.frombuffer(blob, dtype=dtype, count=count, offset=cursor)
            )
            cursor += size
        return cls(*parts)


@dataclass
class DynamicGraphStats:
    """Accounting of one dynamic graph's lifetime.

    The conservation law the chaos tests pin: every update submitted
    through a committed batch is applied exactly once —
    ``updates_submitted == inserts_applied + deletes_applied +
    reweights_applied`` (counting logical updates; the undirected
    mirror is bookkeeping, not a second update).
    """

    epochs_committed: int = 0
    updates_submitted: int = 0
    inserts_applied: int = 0
    deletes_applied: int = 0
    reweights_applied: int = 0
    compactions: int = 0
    wal_records_written: int = 0
    wal_bytes_written: int = 0
    recovery: WalRecoveryReport | None = None

    def conservation_balanced(self) -> bool:
        return self.updates_submitted == (
            self.inserts_applied
            + self.deletes_applied
            + self.reweights_applied
        )


class EpochSnapshot(PreparedGraph):
    """An immutable view of one committed epoch.

    ``graph`` is a real read-only :class:`CSRGraph` — every engine runs
    on it unchanged — and the snapshot is the epoch's
    :class:`~repro.graph.prepared.PreparedGraph`: its default tables
    come from the owning :class:`DynamicGraph`, which maintains them
    incrementally from the previous epoch's.  Snapshots stay valid
    after further commits: later epochs build new arrays, they never
    mutate old ones.  The owner forgets a superseded epoch; whoever
    holds its snapshot keeps it, and tables first asked of it then are
    built from scratch.  Pickled, it is its graph plus the tables it
    holds, never the owner (WAL handle, delta buffer, other epochs);
    unpickled, it builds anything else from scratch like a plain one.
    """

    def __init__(self, owner, epoch: int, graph: CSRGraph, tables=None) -> None:
        super().__init__(graph)
        self._owner = owner
        self.epoch = epoch
        self._tables = tables  # unpickled: the tables kept for the epoch

    @property
    def maintenance(self) -> MaintenanceStats | None:
        """The owner's incremental-maintenance counters (``None`` unpickled)."""
        return None if self._owner is None else self._owner.maintenance

    def __reduce__(self):
        return EpochSnapshot, (None, self.epoch, self.graph, self._tables)

    def _default_tables(self, build=None) -> VertexAliasTables:
        if self._owner is None:
            return super()._default_tables(build)
        return self._owner._tables_for(self)


def _replace_slices(prior: CSRGraph, vertices, local, columns) -> CSRGraph:
    """``prior`` with ``vertices``' slices replaced by ``columns`` (end to
    end at ``local`` offsets; ``None``: no such column), the rest copied."""
    degrees = np.diff(prior.offsets)
    degrees[vertices] = np.diff(local)
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    at = slice_indices(offsets, vertices)
    result, copied = [], []
    olds = (prior.targets, prior.weights, prior.edge_types)
    for old, new, blank in zip(olds, columns, (0, 1.0, 0)):  # blank: the absent value
        column = None if new is None else np.full(offsets[-1], blank, dtype=new.dtype)
        if column is not None:
            column[at] = new
            if old is not None:
                copied.append((old, column))
        result.append(column)
    copy_untouched_runs(prior.offsets, offsets, np.sort(vertices), copied)
    return CSRGraph(offsets, *result, prior.vertex_types, prior.is_undirected)


class DynamicGraph:
    """A CSR graph accepting committed update batches in epochs.

    Parameters
    ----------
    base:
        the starting graph (epoch ``base_epoch``, normally 0).
    wal_path:
        when given, every committed batch is appended (and flushed) to
        a write-ahead log at this path *before* being applied.
    verify:
        self-verification of incremental sampler maintenance:
        ``"off"`` (default), ``"sample"`` (probe up to
        ``VERIFY_SAMPLES`` touched vertices plus a couple of untouched
        ones per table build), or ``"full"`` (probe every vertex).  A
        failed probe is counted and triggers a from-scratch rebuild.
    seed:
        the deterministic seed the probes derive from.
    base_epoch:
        the epoch ``base`` stands for (a durably compacted base's).
    """

    def __init__(
        self,
        base: CSRGraph,
        wal_path: str | os.PathLike | None = None,
        verify: str = "off",
        seed: int = 0,
        base_epoch: int = 0,
    ) -> None:
        if verify not in ("off", "sample", "full"):
            raise GraphError(f"unknown verify mode {verify!r}")
        self._base = base
        self._base_epoch = int(base_epoch)
        self._epoch = int(base_epoch)
        # The delta buffer: vertex -> (lo, hi, columns), its slice of the
        # (targets, weights, edge_types) its last commit staged, never rewritten.
        self._overlay: dict[int, tuple] = {}
        self._touched_by_epoch: dict[int, np.ndarray] = {}  # up to _pruned: gone
        self._pruned = self._base_epoch
        self._latest: EpochSnapshot | None = None
        # (epoch, alias tables): the newest epoch whose tables were asked for.
        self._maintained: tuple[int, VertexAliasTables] | None = None
        self._pid = None  # _locked() makes the lock per process
        self._weighted = base.weights is not None
        self._typed = base.edge_types is not None
        self._verify = verify
        self._seed = int(seed)
        self.stats = DynamicGraphStats()
        self.maintenance = MaintenanceStats()
        self._wal: WriteAheadLog | None = None
        if wal_path is not None:
            from repro.graph.wal import WriteAheadLog

            self._wal = WriteAheadLog.create(str(wal_path))

    def _locked(self) -> threading.Lock:
        """The lock over the newest epoch and its maintenance: made anew
        in a forked child or an unpickled copy, where no holder is left."""
        if self._pid != os.getpid():
            self._lock, self._pid = threading.Lock(), os.getpid()
        return self._lock

    def __getstate__(self) -> dict:  # locks do not pickle
        return dict(self.__dict__, _lock=None, _pid=None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"DynamicGraph(epoch={self._epoch}, "
            f"|V|={self._base.num_vertices}, "
            f"delta_vertices={len(self._overlay)}, "
            f"wal={'on' if self._wal is not None else 'off'})"
        )

    @property
    def epoch(self) -> int:
        """The last committed epoch (the one snapshots pin)."""
        return self._epoch

    @property
    def base(self) -> CSRGraph:
        return self._base

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    def delta_vertices(self) -> int:
        """Vertices currently held in the delta buffer."""
        return len(self._overlay)

    # ------------------------------------------------------------------
    # Committing updates
    # ------------------------------------------------------------------
    def commit(self, updates: UpdateBatch | list[EdgeUpdate]) -> int:
        """Apply one batch as the next epoch; returns the new epoch id.

        The batch is validated and fully staged first, then logged to
        the WAL (write-ahead: a batch is either durably logged and
        applied, or rejected untouched), then installed.  A staging
        error — e.g. deleting an edge that does not exist — leaves the
        graph and the log exactly as they were.
        """
        batch = (
            updates
            if isinstance(updates, UpdateBatch)
            else UpdateBatch.from_updates(updates)
        )
        staged = self._stage_batch(batch)
        if self._wal is not None:
            self._wal.append(self._epoch + 1, batch.to_bytes())
            self.stats.wal_records_written = self._wal.records_written
            self.stats.wal_bytes_written = self._wal.bytes_written
        self._install(batch, staged)
        return self._epoch

    def _install(self, batch: UpdateBatch, staged: dict[int, tuple]) -> None:
        self._overlay.update(staged)
        self._epoch += 1
        self._touched_by_epoch[self._epoch] = np.fromiter(staged, np.int64, len(staged))
        # Only an installed batch may turn the graph weighted or typed.
        inserted = batch.kinds == INSERT
        inserts, deletes, reweights = np.bincount(batch.kinds, minlength=3).tolist()
        self._weighted |= bool(reweights or (batch.weights[inserted] != 1.0).any())
        self._typed |= bool((batch.edge_types[inserted] != 0).any())
        self.stats.epochs_committed += 1
        self.stats.updates_submitted += len(batch)
        self.stats.inserts_applied += inserts
        self.stats.deletes_applied += deletes
        self.stats.reweights_applied += reweights

    def _stage_batch(self, batch: UpdateBatch) -> dict[int, tuple]:
        """The delta-buffer entries of the touched vertices as ``batch``
        leaves them.  Pure with respect to ``self``: any validation
        error aborts the commit with no side effects.

        Updates apply one after another: an insert lands after the
        parallel edges already there, a delete or reweight hits the
        first copy.  So each (source, target) run is a queue — inserts
        join its back, the k-th delete takes entry k of ``existing +
        inserted``, a reweight addresses the entry then at the front —
        and one stable sort by run simulates the whole batch.
        """
        count = self._base.num_vertices
        kinds, sources, targets = batch.kinds, batch.sources, batch.targets
        weights = batch.weights
        if kinds.size and kinds.max() > REWEIGHT:
            raise GraphError(f"unknown update kind code {int(kinds.max())}")
        invalid = (kinds != DELETE) & ~(np.isfinite(weights) & (weights >= 0))
        invalid |= np.minimum(sources, targets) < 0
        invalid |= np.maximum(sources, targets) >= count
        # Updates before the first invalid one are staged all the same:
        # a missing edge among them is the error met first, one at a time.
        valid = int(np.argmax(invalid)) if invalid.any() else len(batch)
        ops = [a[:valid] for a in (kinds, sources, targets, weights, batch.edge_types)]
        if self._base.is_undirected:  # each update, then its mirror image
            ops = [np.repeat(array, 2) for array in ops]
            ops[1][1::2], ops[2][1::2] = ops[2][1::2], ops[1][1::2].copy()
        kinds, sources, targets, weights, edge_types = ops

        touched, local = np.unique(sources, return_inverse=True)
        touched, offsets, existing = self._gather(touched)
        local = np.argsort(touched)[local]  # _gather's order, not ascending
        span = np.int64(count)
        keys = local * span + targets  # by (touched vertex, target)
        order = np.argsort(keys, kind="stable")
        keys, local, sorted_kinds = keys[order], local[order], kinds[order]
        inserting, deleting = sorted_kinds == INSERT, sorted_kinds == DELETE
        degrees = np.diff(offsets)
        existing_keys = np.repeat(np.arange(touched.size) * span, degrees)
        existing_keys += existing[0]
        first = np.searchsorted(existing_keys, keys, side="left")
        after = np.searchsorted(existing_keys, keys, side="right")
        heads = np.diff(keys, prepend=-1) != 0
        head = np.flatnonzero(heads)[np.cumsum(heads) - 1]  # of its run, per op
        # Per operation: the inserts / deletes before it in its run, and
        # (``ahead``) the inserts of the runs sorted before its own.
        inserted = np.cumsum(inserting) - inserting
        deleted = np.cumsum(deleting) - deleting
        ahead = inserted[head]
        inserted -= ahead
        deleted -= deleted[head]
        held = after - first
        missing = ~inserting & (held + inserted <= deleted)
        if missing.any():
            at = int(order[missing].min())
            raise GraphError(
                f"{_KIND_NAMES[int(kinds[at])]} of missing edge "
                f"{int(sources[at])}->{int(targets[at])} (epoch {self._epoch})"
            )
        if valid < len(batch):
            for end in (int(batch.sources[valid]), int(batch.targets[valid])):
                if not 0 <= end < count:
                    raise GraphError(f"update endpoint {end} out of range [0, {count})")
            raise GraphError(
                f"update weight must be finite and non-negative, "
                f"got {float(batch.weights[valid])!r}"
            )
        # Entries: the existing ones, then the inserts in sorted order.
        # A delete or reweight addresses entry ``deleted`` of its run.
        placed, total = order[inserting], existing_keys.size
        columns = [
            np.concatenate((old, new[placed].astype(old.dtype)))
            for old, new in zip(existing, (targets, weights, edge_types))
        ]
        slot = np.where(deleted < held, first + deleted, total + ahead + deleted - held)
        keep = np.ones(total + placed.size, dtype=bool)
        keep[slot[deleting]] = False
        reweighting = np.flatnonzero(sorted_kinds == REWEIGHT)
        reweighted = slot[reweighting]
        # Several reweights of one entry: the last submitted stands.
        last = np.diff(reweighted, append=-1) != 0
        columns[1][reweighted[last]] = weights[order[reweighting[last]]]
        # An insert goes after every existing entry of its run, and
        # after the inserts sorted before it.
        merged = np.insert(
            np.arange(total), after[inserting], np.arange(total, keep.size)
        )
        merged = merged[keep[merged]]
        columns = tuple(column[merged] for column in columns)
        degrees += np.bincount(local[inserting], minlength=touched.size)
        degrees -= np.bincount(local[deleting], minlength=touched.size)
        bounds = np.cumsum(degrees).tolist()
        return dict(zip(touched.tolist(), zip([0] + bounds, bounds, repeat(columns))))

    def _gather(self, vertices: np.ndarray):
        """The current adjacencies of ``vertices`` laid end to end, the
        ones the base still holds first (one gather), then the delta
        buffer's: ``(vertices in that order, offsets, columns)``, with
        weights and types spelled out (1.0 / 0) where the base has none."""
        base = self._base
        entries = list(map(self._overlay.get, vertices.tolist()))
        fresh = np.array([entry is None for entry in entries], dtype=bool)
        held = [entry for entry in entries if entry is not None]
        kept = vertices[fresh]
        degrees = base.offsets[kept + 1] - base.offsets[kept]
        offsets = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(
            np.concatenate((degrees, [hi - lo for lo, hi, _ in held])),
            out=offsets[1:],
        )
        source = slice_indices(base.offsets, kept)
        blanks = ((0, np.int64), (1.0, np.float64), (0, np.int32))
        columns = tuple(
            np.concatenate(
                [np.full(source.size, *blank) if old is None else old[source]]
                + [staged[column][lo:hi] for lo, hi, staged in held]
            )
            for column, (old, blank) in enumerate(
                zip((base.targets, base.weights, base.edge_types), blanks)
            )
        )
        return np.concatenate((kept, vertices[~fresh])), offsets, columns

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> EpochSnapshot:
        """The current epoch as an immutable view (cached per epoch).
        An older epoch is a snapshot some walk still holds, or one
        :meth:`recover` rebuilds from the WAL with ``replay_to``."""
        latest = self._latest
        if latest is not None and latest.epoch == self._epoch:
            return latest
        snap = EpochSnapshot(self, self._epoch, self._materialize())
        with self._locked():
            self._latest = snap
            self._prune()
        return snap

    def _materialize(self) -> CSRGraph:
        """The current epoch's CSR: the nearest materialised epoch
        before it — the last snapshot, else the base — with the slices
        of the vertices touched since replaced from the delta buffer."""
        prior, since = self._base, self._base_epoch
        if self._latest is not None:
            prior, since = self._latest.graph, self._latest.epoch
        touched = self._touched_between(since, self._epoch)
        if touched is None:  # an untracked epoch: base + the whole buffer
            prior, touched = self._base, np.asarray(sorted(self._overlay))
        if not touched.size:
            return prior
        order, local, rebuilt = self._gather(touched)
        kept = (True, self._weighted, self._typed)
        columns = [new if k else None for new, k in zip(rebuilt, kept)]
        return _replace_slices(prior, order, local, columns)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Fold the delta buffer into the base CSR (in memory).

        The current epoch's materialised graph *becomes* the base;
        held snapshots stay valid (their arrays are never written).
        Durability is unchanged — the WAL still holds every record
        since the last durable base — so a crash mid-compaction simply
        recovers by replaying onto the old base.
        """
        snap = self.snapshot()
        self._base = snap.graph
        self._base_epoch = self._epoch
        self._overlay.clear()
        self.stats.compactions += 1

    def save_compacted(
        self,
        base_path: str | os.PathLike,
        truncate_wal: bool = True,
    ) -> None:
        """Durable compaction: persist the base, then drop folded WAL
        records.

        Two independently atomic steps (write-then-rename for each
        file), ordered so every crash point recovers to the last
        committed epoch: records carry epoch ids and the base carries
        its fold epoch, so replaying a stale log over a newer base
        skips the already-folded prefix instead of double-applying it.
        """
        from repro.graph.io import save_binary

        self.compact()
        # np.savez appends ".npz" to foreign suffixes; keep it last so
        # the sidecar lands where the rename expects it.
        tmp = str(base_path) + ".tmp.npz"
        save_binary(self._base, tmp, epoch=self._base_epoch)
        os.replace(tmp, str(base_path))
        if truncate_wal and self._wal is not None:
            self._wal.rewrite([])
            self.stats.wal_records_written = self._wal.records_written
            self.stats.wal_bytes_written = self._wal.bytes_written

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        base: CSRGraph,
        wal_path: str | os.PathLike,
        replay_to: int | None = None,
        base_epoch: int = 0,
        **kwargs,
    ) -> "DynamicGraph":
        """Rebuild from ``base`` plus the write-ahead log.

        Torn tails are truncated and reported
        (``stats.recovery``); records with epochs the base already
        folded in (``<= base_epoch``) are skipped.  ``replay_to`` stops
        at an epoch in ``[base_epoch, last logged]`` — the checkpoint-
        restore path — leaving the WAL untouched and detached (the
        instance is a read-only view of history; committing to it would
        fork the log).  A full replay reattaches the log for appends.
        """
        from repro.graph.wal import WriteAheadLog

        log, records, report = WriteAheadLog.open(str(wal_path))
        last = max([base_epoch, *(epoch for epoch, _ in records)])
        if replay_to is not None and not base_epoch <= replay_to <= last:
            log.close()
            raise WalError(f"{wal_path}: no epoch {replay_to} in {[base_epoch, last]}")
        dynamic = cls(base, base_epoch=base_epoch, **kwargs)
        report.records_replayed = 0
        partial = False
        for epoch, payload in records:
            if epoch <= base_epoch:
                report.records_skipped += 1
                continue
            if replay_to is not None and epoch > replay_to:
                partial = True
                break
            if epoch != dynamic._epoch + 1:
                log.close()
                raise WalError(
                    f"{wal_path}: epoch gap in log (expected "
                    f"{dynamic._epoch + 1}, found {epoch})"
                )
            batch = UpdateBatch.from_bytes(payload)
            dynamic._install(batch, dynamic._stage_batch(batch))
            report.records_replayed += 1
        if partial:
            log.close()
        else:
            dynamic._wal = log
            dynamic.stats.wal_records_written = log.records_written
            dynamic.stats.wal_bytes_written = log.bytes_written
        report.last_epoch = dynamic._epoch
        dynamic.stats.recovery = report
        return dynamic

    @classmethod
    def load_compacted(
        cls,
        base_path: str | os.PathLike,
        wal_path: str | os.PathLike,
        **kwargs,
    ) -> "DynamicGraph":
        """Recover from a durably compacted base plus its WAL."""
        from repro.graph.io import load_binary

        base, epoch = load_binary(base_path, with_epoch=True)
        return cls.recover(
            base, wal_path, base_epoch=0 if epoch is None else epoch, **kwargs
        )

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    # ------------------------------------------------------------------
    # Incremental alias-table maintenance
    # ------------------------------------------------------------------
    def _touched_between(self, old: int, new: int) -> np.ndarray | None:
        """Union of touched vertices over epochs ``(old, new]``, or ``None``
        when one is untracked (before a recovered instance's base, or pruned)."""
        parts = [self._touched_by_epoch.get(e) for e in range(old + 1, new + 1)]
        if any(part is None for part in parts):
            return None
        return np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *parts]))

    def _prune(self) -> None:
        """Drop the touched sets before both the newest snapshot and the
        maintained tables' epoch: nothing asks for them again."""
        floor = self._latest.epoch
        if self._maintained is not None:
            floor = min(floor, self._maintained[0])
        for epoch in range(self._pruned + 1, floor + 1):
            self._touched_by_epoch.pop(epoch, None)
        self._pruned = max(self._pruned, floor)

    def _tables_for(self, snap: EpochSnapshot) -> VertexAliasTables:
        """``snap``'s alias tables: the maintained ones if of its epoch,
        else those updated over the vertices touched since — probed when
        verifying — else (nothing to start from, an untracked epoch, a
        failed probe) built from scratch.  Locked: concurrent first
        askers share one build."""
        graph, stats = snap.graph, self.maintenance
        with self._locked():
            cached = self._maintained
            if cached is not None and cached[0] == snap.epoch:
                return cached[1]
            touched = (
                self._touched_between(cached[0], snap.epoch)
                if cached is not None and cached[0] < snap.epoch
                else None
            )
            tables = None
            if touched is not None:
                tables = cached[1].updated(graph, None, touched)
                stats.epochs_maintained += 1
                stats.vertices_rebuilt += int(touched.size)
                stats.vertices_copied += graph.num_vertices - int(touched.size)
                if self._verify != "off":
                    probes = self._probe_vertices(snap, touched)
                    stats.verify_checks += int(probes.size)
                    bad = tables.mismatches(probes)
                    if bad:
                        stats.verify_mismatches += len(bad)
                        stats.verify_fallbacks += 1
                        tables = None
            if tables is None:
                tables = VertexAliasTables(graph)
                stats.full_rebuilds += 1
            # A superseded epoch asking late never displaces a newer entry.
            if cached is None or cached[0] < snap.epoch:
                self._maintained = (snap.epoch, tables)
                self._prune()
            return tables

    def _probe_vertices(
        self, snap: EpochSnapshot, touched: np.ndarray
    ) -> np.ndarray:
        if self._verify == "full":
            return np.arange(snap.graph.num_vertices, dtype=np.int64)
        from repro.sampling.rng import derive_rng

        rng = derive_rng(self._seed, snap.epoch)
        picks = []
        if touched.size:
            count = min(VERIFY_SAMPLES, int(touched.size))
            picks.append(rng.choice(touched, size=count, replace=False))
        untouched = np.setdiff1d(np.arange(snap.graph.num_vertices), touched)
        if untouched.size:
            count = min(2, int(untouched.size))
            picks.append(rng.choice(untouched, size=count, replace=False))
        if not picks:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(picks))


def parse_update_stream(source) -> list[UpdateBatch]:
    """Parse a textual update stream into per-epoch batches.

    ``source`` is a path or an iterable of lines.  Directives, one per
    line (``#`` comments and blanks ignored)::

        insert SRC DST [WEIGHT] [TYPE]
        delete SRC DST
        reweight SRC DST WEIGHT
        commit

    ``commit`` closes the current batch (one epoch); trailing updates
    without a final ``commit`` form a last batch.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    batches: list[UpdateBatch] = []
    pending: list[EdgeUpdate] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        verb = fields[0].lower()
        try:
            if verb == "commit":
                if len(fields) != 1:
                    raise GraphError("commit takes no arguments")
                batches.append(UpdateBatch.from_updates(pending))
                pending = []
            elif verb == "insert":
                if not 3 <= len(fields) <= 5:
                    raise GraphError("insert takes 2-4 arguments")
                pending.append(
                    EdgeUpdate(
                        "insert",
                        int(fields[1]),
                        int(fields[2]),
                        float(fields[3]) if len(fields) > 3 else 1.0,
                        int(fields[4]) if len(fields) > 4 else 0,
                    )
                )
            elif verb == "delete":
                if len(fields) != 3:
                    raise GraphError("delete takes 2 arguments")
                pending.append(
                    EdgeUpdate("delete", int(fields[1]), int(fields[2]))
                )
            elif verb == "reweight":
                if len(fields) != 4:
                    raise GraphError("reweight takes 3 arguments")
                pending.append(
                    EdgeUpdate(
                        "reweight",
                        int(fields[1]),
                        int(fields[2]),
                        float(fields[3]),
                    )
                )
            else:
                raise GraphError(f"unknown directive {verb!r}")
        except (ValueError, GraphError) as exc:
            raise GraphError(
                f"update stream line {number}: {line!r}: {exc}"
            ) from exc
    if pending:
        batches.append(UpdateBatch.from_updates(pending))
    return batches


def generate_churn_batches(
    graph: CSRGraph,
    num_epochs: int,
    updates_per_epoch: int,
    seed: int,
    weight_low: float = 1.0,
    weight_high: float = 5.0,
) -> list[UpdateBatch]:
    """Synthetic follow/unfollow churn against ``graph``.

    Each epoch mixes inserts of fresh edges (follows), deletes of
    edges known to exist (unfollows), and reweights — all derived from
    a seeded RNG, so the same ``(graph, seed)`` yields the same stream
    on every run.  On undirected graphs updates use the canonical
    ``min->max`` orientation (the commit path mirrors them).
    """
    rng = np.random.default_rng(seed)
    num_vertices = graph.num_vertices
    # The evolving logical edge set (canonical orientation if undirected),
    # kept sorted: deletes always hit, inserts never add a parallel edge.
    sources = np.repeat(np.arange(num_vertices), graph.out_degrees())
    ends = np.stack((sources, graph.targets))
    if graph.is_undirected:
        ends = np.sort(ends, axis=0)
    keys = np.unique(ends[0] * num_vertices + ends[1])
    pairs = list(zip((keys // num_vertices).tolist(), (keys % num_vertices).tolist()))
    batches: list[UpdateBatch] = []
    for _ in range(num_epochs):
        updates: list[EdgeUpdate] = []
        for _ in range(updates_per_epoch):
            action = rng.random()
            if action < 0.4 or not pairs:
                for _ in range(32):
                    u = int(rng.integers(num_vertices))
                    v = int(rng.integers(num_vertices))
                    if graph.is_undirected:
                        u, v = min(u, v), max(u, v)
                    at = bisect.bisect_left(pairs, (u, v))
                    if u != v and pairs[at : at + 1] != [(u, v)]:
                        break
                else:
                    continue
                pairs.insert(at, (u, v))
                weight = float(rng.uniform(weight_low, weight_high))
                updates.append(EdgeUpdate("insert", u, v, weight))
            elif action < 0.7:
                u, v = pairs.pop(int(rng.integers(len(pairs))))
                updates.append(EdgeUpdate("delete", u, v))
            else:
                u, v = pairs[int(rng.integers(len(pairs)))]
                weight = float(rng.uniform(weight_low, weight_high))
                updates.append(EdgeUpdate("reweight", u, v, weight))
        batches.append(UpdateBatch.from_updates(updates))
    return batches
