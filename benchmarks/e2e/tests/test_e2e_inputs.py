import numpy as np

from kkbench.base import Job
from kkbench.inputs import (
    MIX_BLOCK,
    arrival_offsets,
    build_churn_stream,
    derive_seed,
    directed_keys,
    request_block,
)


def test_open_loop_latency_runs_from_the_due_time():
    # Due at t=1.0, actually sent at 1.3 (the generator ran late),
    # answered at 1.5: the caller waited 0.5 s, not 0.2 s.
    late = Job("w/0", start=1.3, end=1.5, due=1.0)
    assert abs(late.latency_ms - 500.0) < 1e-9
    closed = Job("w/1", start=1.3, end=1.5)
    assert abs(closed.latency_ms - 200.0) < 1e-9


def test_seeds_are_stable_and_distinct():
    assert derive_seed(7, "job", 0) == derive_seed(7, "job", 0)
    assert derive_seed(7, "job", 0) != derive_seed(7, "job", 1)
    assert derive_seed(7, "job", 0) != derive_seed(8, "job", 0)


def test_every_block_carries_the_same_work_in_the_same_order():
    assert [c.name for c in MIX_BLOCK].count("small") == 16
    assert [c.name for c in MIX_BLOCK].count("medium") == 3
    assert MIX_BLOCK[0].name == "large"
    for seed in (1, 2):
        for block in (0, 5):
            specs = request_block(seed, block, num_vertices=1000)
            assert [s.cls for s in specs] == list(MIX_BLOCK)
            assert [s.index for s in specs] == list(
                range(block * len(MIX_BLOCK), (block + 1) * len(MIX_BLOCK))
            )
    first = request_block(1, 0, 1000)
    again = request_block(1, 0, 1000)
    other = request_block(2, 0, 1000)
    assert all(np.array_equal(a.starts, b.starts) for a, b in zip(first, again))
    assert [a.walk_seed for a in first] == [a.walk_seed for a in again]
    assert any(not np.array_equal(a.starts, b.starts) for a, b in zip(first, other))


def test_arrivals_keep_count_and_pace():
    offsets = arrival_offsets(3, 0, rate=10.0, count=20)
    assert offsets.size == 20
    late = offsets * 10.0 - np.arange(20)
    assert np.all((late >= 0) & (late < 0.25))
    assert np.array_equal(offsets, arrival_offsets(3, 0, 10.0, 20))
    assert not np.array_equal(offsets, arrival_offsets(4, 0, 10.0, 20))
    assert not np.array_equal(offsets, arrival_offsets(3, 1, 10.0, 20))


def _ring_with_chords(n=400):
    """Undirected test graph, every vertex of degree >= 6, as CSR arrays."""
    edges = set()
    for v in range(n):
        for hop in (1, 2, 3, 7):
            a, b = v, (v + hop) % n
            edges.add((min(a, b), max(a, b)))
    directed = sorted(edges | {(b, a) for a, b in edges})
    sources = np.array([a for a, _ in directed])
    targets = np.array([b for _, b in directed], dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
    return offsets, targets, edges


def test_churn_stream_can_never_fail_or_strand_a_walker():
    offsets, targets, edges = _ring_with_chords()
    n = offsets.size - 1
    stream = build_churn_stream(offsets, targets, seed=5, num_batches=6, batch_size=20)
    assert len(stream.batches) == 6 and all(len(b) == 20 for b in stream.batches)
    deleted, inserted, reweighted = set(), set(), set()
    for batch in stream.batches:
        for u, v in batch.deletes.tolist():
            assert u < v and (u, v) in edges and (u, v) not in deleted
            deleted.add((u, v))
        for u, v in batch.inserts.tolist():
            assert u < v and (u, v) not in edges and (u, v) not in inserted
            inserted.add((u, v))
        for u, v in batch.reweights.tolist():
            assert (u, v) in edges and (u, v) not in reweighted
            reweighted.add((u, v))
    assert not deleted & reweighted
    lost = np.bincount(np.array(sorted(deleted)).ravel(), minlength=n)
    assert lost.max() <= 2  # every vertex started with degree 8
    ins, dele = stream.directed_changes(upto=6)
    assert ins.size == 2 * len(inserted) and dele.size == 2 * len(deleted)
    u, v = next(iter(deleted))
    assert directed_keys(n, [v], [u])[0] in dele
    again = build_churn_stream(offsets, targets, seed=5, num_batches=6, batch_size=20)
    assert all(
        np.array_equal(a.deletes, b.deletes) and np.array_equal(a.inserts, b.inserts)
        for a, b in zip(stream.batches, again.batches)
    )
