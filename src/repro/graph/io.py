"""Graph persistence: edge-list text files and a compact binary format.

The text format is the lowest common denominator used by every graph
system (one ``src dst [weight] [type]`` line per edge, ``#`` comments);
the binary format is a plain ``.npz`` of the CSR arrays, loading in
O(read) without a re-sort.
"""

from __future__ import annotations

import io
import os
import re
from itertools import islice

import numpy as np

from repro._npz import (
    ChecksumError,
    UnreadableNpz,
    read_members,
    save_checked,
    verify_checksum,
)
from repro._textblock import decimal, join_columns, text_matrix
from repro.errors import GraphFormatError, SnapshotCorruptError
from repro.graph.builder import from_arrays
from repro.graph.csr import CSRGraph

__all__ = [
    "save_edge_list",
    "load_edge_list",
    "save_binary",
    "load_binary",
]

# Edges formatted per write of save_edge_list: bounds the text held at
# once (~1.5 MB) while one id table still serves tens of thousands of rows.
EDGE_BLOCK = 1 << 16

# What a row of an edge list may hold, in order; a file uses the first
# two, three or four.
_FIELDS = [
    ("source", np.int64),
    ("target", np.int64),
    ("weight", np.float64),
    ("edge_type", np.int32),
]
_COMMENT = re.compile(rb"#[^\n]*")
# A line with something on it before any comment — what numpy's reader
# counts as a row (it skips lines left blank once the comment is cut).
_DATA_ROW = re.compile(rb"^[^\S\n]*([^#\s][^#\n]*)", re.MULTILINE)


def save_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write one ``src dst [weight] [type]`` line per stored edge.

    Undirected graphs write both stored directions; loading with
    ``undirected=False`` (the default) round-trips exactly, weights
    included (``repr`` is the shortest text that reads back bit-equal).
    """
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees()
    )
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# vertices {graph.num_vertices}\n")
        for start in range(0, graph.num_edges, EDGE_BLOCK):
            block = slice(start, start + EDGE_BLOCK)
            columns = [decimal(sources[block]), decimal(graph.targets[block])]
            if graph.weights is not None:
                columns.append(text_matrix(map(repr, graph.weights[block].tolist())))
            elif graph.edge_types is not None:
                columns.append(text_matrix(["1.0"]))
            if graph.edge_types is not None:
                columns.append(decimal(graph.edge_types[block]))
            handle.write(
                join_columns(columns, b" " * (len(columns) - 1) + b"\n")
            )


def load_edge_list(
    path: str | os.PathLike,
    num_vertices: int | None = None,
    undirected: bool = False,
) -> CSRGraph:
    """Parse an edge-list text file into a CSR graph.

    Rows are ``src dst``, ``src dst weight`` or ``src dst weight type``
    — one of the three per file, fixed by the first row; blank lines
    are skipped and ``#`` starts a comment anywhere on a line.  A
    ``# vertices N`` comment (as written by :func:`save_edge_list`) pins
    the vertex count; otherwise it defaults to ``max id + 1`` or the
    explicit argument.  The rows go through numpy's C reader in one
    call; whatever it refuses — a row with another field count, an id
    that is not a decimal int64, a non-ASCII byte — and a weight that
    is not finite is a :class:`GraphFormatError` naming ``path:line``.
    """
    with open(path, "rb") as handle:
        data = handle.read()

    def fail(offset: int, problem: str) -> GraphFormatError:
        line = data.count(b"\n", 0, offset) + 1
        return GraphFormatError(f"{path}:{line}: {problem}")

    def row_offset(index: int) -> int:
        return next(islice(_DATA_ROW.finditer(data), index, None)).start(1)

    declared_vertices: int | None = None
    for comment in _COMMENT.finditer(data):
        words = comment.group()[1:].split()
        if len(words) == 2 and words[0] == b"vertices":
            try:
                declared_vertices = int(words[1])
            except ValueError:
                raise fail(
                    comment.start(), f"vertex count {words[1]!r} is not an integer"
                ) from None

    first = _DATA_ROW.search(data)
    columns = len(first.group(1).split()) if first else 2
    if not 2 <= columns <= 4:
        raise fail(first.start(1), f"expected 2-4 fields, got {columns}")
    rows = np.empty(0, dtype=_FIELDS[:columns])
    if first:
        # numpy takes one line at a time from the stream, so when it
        # gives up the stream stands just past the line it gave up on.
        stream = io.BytesIO(data)
        try:
            rows = np.loadtxt(
                stream,
                dtype=_FIELDS[:columns],
                comments="#",
                encoding="ascii",
                ndmin=1,
            )
        except ValueError as exc:
            stop = stream.tell()
            line = data[data.rfind(b"\n", 0, stop - 1) + 1 : stop]
            fields = len(line.partition(b"#")[0].split())
            if isinstance(exc, UnicodeDecodeError):
                problem = f"non-ASCII byte in {line.strip()!r}"
            elif fields != columns:
                problem = f"expected {columns} fields as on the first row, got {fields}"
            else:
                problem = f"cannot parse {line.strip()!r}"
            raise fail(stop - 1, problem) from exc

    weights = rows["weight"] if columns >= 3 else None
    if weights is not None and not np.isfinite(weights).all():
        bad = int(np.flatnonzero(~np.isfinite(weights))[0])
        raise fail(row_offset(bad), f"edge weight {weights[bad]} is not finite")

    if num_vertices is None:
        num_vertices = declared_vertices
    if num_vertices is None:
        if not rows.size:
            raise GraphFormatError(f"{path}: empty graph with no vertex count")
        num_vertices = int(max(rows["source"].max(), rows["target"].max())) + 1

    try:
        return from_arrays(
            num_vertices,
            rows["source"],
            rows["target"],
            weights=weights,
            edge_types=rows["edge_type"] if columns == 4 else None,
            undirected=undirected,
        )
    except MemoryError as exc:
        # The vertex count is file content: one absurd id (or header)
        # asks for per-vertex arrays no machine holds.
        problem = f"a graph of {num_vertices} vertices does not fit in memory"
        largest = np.maximum(rows["source"], rows["target"])
        if rows.size and largest.max() + 1 == num_vertices:
            worst = int(largest.argmax())
            raise fail(
                row_offset(worst), f"vertex id {largest[worst]}: {problem}"
            ) from exc
        raise GraphFormatError(f"{path}: {problem}") from exc


def save_binary(
    graph: CSRGraph, path: str | os.PathLike, epoch: int | None = None
) -> None:
    """Save the raw CSR arrays as a checksummed, compressed ``.npz``.

    ``epoch`` tags the file with a dynamic-graph epoch id, so a
    compacted base written by :class:`~repro.graph.dynamic.DynamicGraph`
    knows which write-ahead-log records are already folded in.
    """
    payload: dict[str, np.ndarray] = {
        "offsets": graph.offsets,
        "targets": graph.targets,
        "undirected": np.asarray([graph.is_undirected]),
    }
    if graph.weights is not None:
        payload["weights"] = graph.weights
    if graph.edge_types is not None:
        payload["edge_types"] = graph.edge_types
    if graph.vertex_types is not None:
        payload["vertex_types"] = graph.vertex_types
    if epoch is not None:
        payload["graph_epoch"] = np.asarray([epoch], dtype=np.int64)
    save_checked(path, payload, np.uint32)


def load_binary(
    path: str | os.PathLike, with_epoch: bool = False
) -> CSRGraph | tuple[CSRGraph, int | None]:
    """Load a graph previously saved by :func:`save_binary`.

    Verifies the payload checksum — a file without one is refused, no
    writer ever produced it — and maps every flavour of torn or
    bit-flipped file onto :class:`~repro.errors.SnapshotCorruptError`
    instead of leaking raw numpy/zip/zlib errors.  ``with_epoch=True``
    additionally returns the stored epoch id (``None`` on untagged
    files).
    """
    try:
        arrays = read_members(path)
        verify_checksum(arrays)
    except FileNotFoundError as exc:
        raise GraphFormatError(f"{path}: no such file") from exc
    except UnreadableNpz as exc:
        raise SnapshotCorruptError(
            f"{path}: unreadable graph file ({exc})"
        ) from exc
    except ChecksumError as exc:
        raise SnapshotCorruptError(f"{path}: {exc}; the file is damaged") from exc
    epoch_array = arrays.pop("graph_epoch", None)
    epoch = None if epoch_array is None else int(epoch_array[0])
    try:
        graph = CSRGraph(
            offsets=arrays["offsets"],
            targets=arrays["targets"],
            weights=arrays.get("weights"),
            edge_types=arrays.get("edge_types"),
            vertex_types=arrays.get("vertex_types"),
            undirected=bool(arrays["undirected"][0]),
        )
    except KeyError as exc:
        raise GraphFormatError(f"{path}: missing CSR array {exc}") from exc
    return (graph, epoch) if with_epoch else graph
