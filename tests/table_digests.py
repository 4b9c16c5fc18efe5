"""Full-scale alias-table identity: sha256 digests of ``(totals, prob,
alias)`` for three whole stand-in graphs.

The oracle graphs of ``tests/test_table_reference.py`` are small; these
three reach what they never do — twitter's eight hubs of degree ~8 000
and the chunk boundaries a full build over ~3e5 edges crosses.  The
digests in ``DIGESTS`` were generated at 6e40b00, the commit before
weighted builds went a chunk of vertices at a time; a build that
changes a single bit of any array fails here.

Not a tier-1 test (the three builds and the dataset loads take a few
seconds); CI runs it as its own step:

    PYTHONPATH=src python -m tests.table_digests

It prints one line per graph and exits 1 on any mismatch.
"""

import hashlib
import sys

from repro.graph import load_dataset
from repro.sampling.alias import VertexAliasTables

GRAPHS = {
    "twitter-weighted": ("twitter", True),
    "livejournal-weighted": ("livejournal", True),
    "livejournal-unweighted": ("livejournal", False),
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
}


def table_digests(name: str, weighted: bool) -> dict[str, str]:
    """sha256 of each array of ``VertexAliasTables`` over the whole
    graph ``name`` at scale 1 (default Ps: its weights, or ones)."""
    tables = VertexAliasTables(load_dataset(name, scale=1.0, weighted=weighted))
    arrays = {"totals": tables.totals, "prob": tables._prob, "alias": tables._alias}
    return {
        key: f"{array.dtype.str}:{hashlib.sha256(array.tobytes()).hexdigest()}"
        for key, array in arrays.items()
    }


def main() -> int:
    failed = 0
    for cell, (name, weighted) in GRAPHS.items():
        got = table_digests(name, weighted)
        expected = DIGESTS.get(cell)
        status = "ok" if got == expected else "DIFFERS"
        failed += got != expected
        print(f"{cell}: {status}")
        if got != expected:
            print(f"    got      {got}\n    expected {expected}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
