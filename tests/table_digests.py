"""Full-scale alias-table identity: sha256 digests of the arrays of
whole stand-in graphs' tables.

The oracle graphs of ``tests/test_table_reference.py`` are small; these
reach what they never do — twitter's eight hubs of degree ~8 000 and
the chunk boundaries a full build over ~3e5 edges crosses.  Three
degree profiles (twitter, livejournal, friendster) are pinned as
``VertexAliasTables``, and twitter with five random edge types as
``TypedVertexAliasTables``, whose groups are segments of a sorted Ps.
The first three digests in ``DIGESTS`` were generated at 6e40b00, the
commit before weighted builds went a chunk of vertices at a time; the
typed and friendster ones at b4058fb, the commit before the pairing
pass ran in lock step across a chunk's vertices.  A build that changes
a single bit of any array fails here.

Not a tier-1 test (the builds and the dataset loads take a few
seconds); CI runs it as its own step:

    PYTHONPATH=src python -m tests.table_digests

It prints one line per graph and exits 1 on any mismatch.
"""

import hashlib
import sys

from repro.graph import load_dataset
from repro.graph.hetero import assign_random_edge_types
from repro.sampling.alias import VertexAliasTables
from repro.sampling.typed import TypedVertexAliasTables

# cell -> (dataset, weighted, edge types: 0 for the per-vertex tables)
GRAPHS = {
    "twitter-weighted": ("twitter", True, 0),
    "livejournal-weighted": ("livejournal", True, 0),
    "livejournal-unweighted": ("livejournal", False, 0),
    "friendster-weighted": ("friendster", True, 0),
    "twitter-typed-weighted": ("twitter", True, 5),
    "twitter-typed-unweighted": ("twitter", False, 5),
}

DIGESTS = {
    "twitter-weighted": {
        "totals": "<f8:d008c5e97e4c83402f03946c70661913dbbe3635fb0df2744b588a1a63d6e39f",
        "prob": "<f8:e30c6d118bda2c9eaacc06d2cde13e33c532f2eb6d575fe49b3c8463a0bdfe0e",
        "alias": "<i4:b98b63633ecfba654325a58f80f0118c144fd63bf612a186561c26153217d03e",
    },
    "livejournal-weighted": {
        "totals": "<f8:62d0d6c95051dbd6b844f50f210a3d023eece5d073b79d8e70eb0484be85189b",
        "prob": "<f8:a27da95ffcdab4ed362d78ef03d9f8e2b34f1d1e452ea7de9a76c62887ed6b41",
        "alias": "<i4:e4cb87e17396d5e1767d204aa2739000647693fadeb59d696d08d176eb027d13",
    },
    "livejournal-unweighted": {
        "totals": "<f8:9bfdc72f95cc2211fc04633d55571c316ca6da85612a2a902a463bda28817dda",
        "prob": "<f8:2cc6290c18b2a8c07b8013c50c3e38f100ae156139e239b635a29d3956bb7221",
        "alias": "<i4:25c995766d6222da1787c01bffe8ff10ede691404a0be85e996e78680b2b189f",
    },
    "friendster-weighted": {
        "totals": "<f8:b5eeb4f7828810538d7944f03ffb59447b0c39f7700a5e579ed8a8390cb17d1f",
        "prob": "<f8:d5e152a134533c7303722f08e35300b73a6e841c80473ddf061b8e2d5e8a74e1",
        "alias": "<i4:14f8cf4f630aaf1748a6d97f7e64a6d3ea009a40330f15bb9067382026247706",
    },
    "twitter-typed-weighted": {
        "totals": "<f8:bc7a55da53e5bd82fe73bfcc368118c2e3b6b48cbc8992fdb142b4e20ef20e80",
        "edges": "<i4:1b17fe77bf8646e491f85cbbc380c5728a224f5041f205d52bf11b203e4c30d3",
        "prob": "<f8:0e4d4decfdd57563fc90e333ed2f8570397d57de8231f05f4b378ccc29c49ea1",
        "alias": "<i4:66b046bc70b75df6baad401cd31cba97ea9655febec692995f7b6b0d3937b174",
        "count": "<i8:5d7936287b5b43b31a126d2c1909710527533e79cce6549ece700f681fd07e3c",
    },
    "twitter-typed-unweighted": {
        "totals": "<f8:c62612c39437d790a5310a21f1bce1d1a58d3714bc8a07b96b27fa525fb65fc9",
        "edges": "<i4:1b17fe77bf8646e491f85cbbc380c5728a224f5041f205d52bf11b203e4c30d3",
        "prob": "<f8:56cf079c0d128c1be6b3a351513b6aee8de01a6f30a9b70319cce01b5223554d",
        "alias": "<i4:ba12eac624611be3ee86233638d01d3bf603896a48bc41320291e6432bb98863",
        "count": "<i8:5d7936287b5b43b31a126d2c1909710527533e79cce6549ece700f681fd07e3c",
    },
}


def table_digests(name: str, weighted: bool, types: int) -> dict[str, str]:
    """sha256 of each array of the tables over the whole graph ``name``
    at scale 1 (default Ps: its weights, or ones): ``VertexAliasTables``,
    or with ``types`` random edge types (seed 1) the typed tables."""
    graph = load_dataset(name, scale=1.0, weighted=weighted)
    if types:
        typed = TypedVertexAliasTables(assign_random_edge_types(graph, types, seed=1))
        arrays = {
            "totals": typed._totals,
            "edges": typed._flat_edges,
            "prob": typed._flat_prob,
            "alias": typed._flat_alias,
            "count": typed._group_count,
        }
    else:
        tables = VertexAliasTables(graph)
        arrays = {"totals": tables.totals, "prob": tables._prob, "alias": tables._alias}
    return {
        key: f"{array.dtype.str}:{hashlib.sha256(array.tobytes()).hexdigest()}"
        for key, array in arrays.items()
    }


def main() -> int:
    failed = 0
    for cell, (name, weighted, types) in GRAPHS.items():
        got = table_digests(name, weighted, types)
        expected = DIGESTS.get(cell)
        status = "ok" if got == expected else "DIFFERS"
        failed += got != expected
        print(f"{cell}: {status}")
        if got != expected:
            print(f"    got      {got}\n    expected {expected}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
