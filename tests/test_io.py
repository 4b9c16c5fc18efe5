"""Unit tests for graph persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._index import index_dtype
from repro._npz import save_checked
from repro.errors import GraphFormatError, SnapshotCorruptError
from repro.graph.builder import assign_random_weights, from_arrays, from_edges
from repro.graph.generators import truncated_power_law_graph
from repro.graph.hetero import assign_random_edge_types
from repro.graph.io import (
    EDGE_BLOCK,
    load_binary,
    load_edge_list,
    save_binary,
    save_edge_list,
)


@pytest.fixture
def graph():
    return truncated_power_law_graph(60, 2.0, 2, 15, seed=9)


class TestEdgeListRoundTrip:
    def test_plain(self, graph, tmp_path):
        path = tmp_path / "plain.txt"
        save_edge_list(graph, path)
        loaded = load_edge_list(path)
        np.testing.assert_array_equal(loaded.offsets, graph.offsets)
        np.testing.assert_array_equal(loaded.targets, graph.targets)

    def test_weighted(self, graph, tmp_path):
        weighted = assign_random_weights(graph, seed=1)
        path = tmp_path / "weighted.txt"
        save_edge_list(weighted, path)
        loaded = load_edge_list(path)
        assert loaded.is_weighted
        # repr() is the shortest text that reads back the same float.
        np.testing.assert_array_equal(loaded.weights, weighted.weights)

    def test_typed(self, graph, tmp_path):
        typed = assign_random_edge_types(graph, 3, seed=2)
        path = tmp_path / "typed.txt"
        save_edge_list(typed, path)
        loaded = load_edge_list(path)
        assert loaded.is_heterogeneous
        np.testing.assert_array_equal(loaded.edge_types, typed.edge_types)

    def test_vertex_count_header(self, graph, tmp_path):
        # Isolated trailing vertices survive via the header.
        padded = from_edges(10, [(0, 1)])
        path = tmp_path / "padded.txt"
        save_edge_list(padded, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == 10

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "explicit.txt"
        path.write_text("0 1\n1 2\n")
        loaded = load_edge_list(path, num_vertices=7)
        assert loaded.num_vertices == 7

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# a comment\n\n0 1\n# another\n1 0\n")
        loaded = load_edge_list(path)
        assert loaded.num_edges == 2


    def test_inline_comment_is_stripped(self, tmp_path):
        """Pinned: ``#`` starts a comment anywhere on a line (numpy's
        reader cuts it), so a note after an edge is not a field."""
        path = tmp_path / "inline.txt"
        path.write_text("0 1 # the first edge\n1 0 #vertices 5\n")
        loaded = load_edge_list(path)
        assert loaded.num_edges == 2
        assert loaded.num_vertices == 5


def _reference_save(graph, path):
    """The per-edge writer save_edge_list replaced."""
    sources = np.repeat(np.arange(graph.num_vertices), graph.out_degrees())
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# vertices {graph.num_vertices}\n")
        for index in range(graph.num_edges):
            fields = [str(int(sources[index])), str(int(graph.targets[index]))]
            if graph.weights is not None:
                fields.append(repr(float(graph.weights[index])))
            if graph.edge_types is not None:
                if graph.weights is None:
                    fields.append("1.0")
                fields.append(str(int(graph.edge_types[index])))
            handle.write(" ".join(fields) + "\n")


class TestSaveEdgeListBytes:
    """Column-wise, block by block — the same bytes as one line at a time."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("typed", [False, True])
    def test_same_file_as_per_edge_writer(self, graph, weighted, typed, tmp_path):
        if weighted:
            graph = assign_random_weights(graph, seed=1)
        if typed:
            graph = assign_random_edge_types(graph, 3, seed=2)
        save_edge_list(graph, tmp_path / "block.txt")
        _reference_save(graph, tmp_path / "edge.txt")
        assert (tmp_path / "block.txt").read_bytes() == (
            tmp_path / "edge.txt"
        ).read_bytes()

    def test_awkward_weights_and_block_boundary(self, tmp_path):
        """More edges than one block, ids far apart, weights whose repr
        is long, exponential, integral or zero."""
        count = EDGE_BLOCK + 3
        rng = np.random.default_rng(5)
        weights = rng.random(count) * 10.0 ** rng.integers(-30, 30, count)
        weights[:4] = [0.0, 1.0, 1e22, 5e-324]
        graph = from_arrays(
            900_000,
            rng.integers(0, 900_000, count),
            rng.integers(0, 900_000, count),
            weights=weights,
        )
        save_edge_list(graph, tmp_path / "block.txt")
        _reference_save(graph, tmp_path / "edge.txt")
        assert (tmp_path / "block.txt").read_bytes() == (
            tmp_path / "edge.txt"
        ).read_bytes()
        loaded = load_edge_list(tmp_path / "block.txt")
        assert loaded.weights.tobytes() == graph.weights.tobytes()

    def test_no_edges(self, tmp_path):
        save_edge_list(from_arrays(4, [], []), tmp_path / "none.txt")
        assert (tmp_path / "none.txt").read_text() == "# vertices 4\n"
        assert load_edge_list(tmp_path / "none.txt").num_vertices == 4


def _reference_load(text):
    """The per-line loop load_edge_list replaced, with the two rules
    the bulk loader's contract adds: a comment may follow an edge, and
    the file has one field count.  Returns from_arrays' arguments."""
    columns, declared = [[], [], [], []], None
    for line in text.splitlines():
        body, _, comment = line.partition("#")
        words = comment.split()
        if "#" in line and len(words) == 2 and words[0] == "vertices":
            declared = int(words[1])
        fields = body.split()
        if fields:
            parsers = (int, int, float, int)[: len(fields)]
            for column, parse, field in zip(columns, parsers, fields):
                column.append(parse(field))
    width = sum(1 for column in columns if column)
    count = declared if declared is not None else max(columns[0] + columns[1]) + 1
    return (
        count,
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.int64),
        np.array(columns[2], dtype=np.float64) if width >= 3 else None,
        np.array(columns[3], dtype=np.int32) if width == 4 else None,
    )


_GAP = st.sampled_from([" ", "\t", "  ", " \t ", "    "])
_EDGE = st.tuples(
    st.integers(0, 40),
    st.integers(0, 40),
    st.one_of(
        st.floats(0, 1e300, allow_nan=False).map(repr),
        st.integers(0, 9).map(str),
        st.sampled_from(["1e3", "2.5E-2", "+4", ".5", "7."]),
    ),
    st.integers(0, 6),
)
_NOISE = st.sampled_from(["", "   ", "\t", "# a comment", "#", "  # vertices", "#vertices 3 4"])


@st.composite
def edge_list_files(draw):
    width = draw(st.integers(2, 4))
    edges = draw(st.lists(_EDGE, max_size=12))
    lines = []
    for edge in edges:
        gaps = draw(st.tuples(_GAP, _GAP, _GAP))
        body = "".join(
            str(field) + gap for field, gap in zip(edge[:width], gaps + ("",))
        ).rstrip()
        lead = draw(st.sampled_from(["", " ", "\t "]))
        trail = draw(st.sampled_from(["", " ", " \t", " # note", "#x"]))
        lines.append(lead + body + trail)
    header = draw(st.sampled_from(["before", "after", "absent"]))
    if not edges:
        header = "before"
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    if header != "absent":
        line = draw(st.sampled_from(["# vertices 41", "#vertices\t41 ", "  #  vertices  41"]))
        lines.insert(0 if header == "before" else len(lines), line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from(["", ending]))
    return ending.join(lines) + final


class TestBulkParserConformance:
    @settings(max_examples=300, deadline=None)
    @given(text=edge_list_files())
    def test_equals_reference_parser(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("edges") / "g.txt"
        path.write_bytes(text.encode("ascii"))
        count, sources, targets, weights, edge_types = _reference_load(text)
        expected = from_arrays(count, sources, targets, weights, edge_types)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == expected.num_vertices
        np.testing.assert_array_equal(loaded.offsets, expected.offsets)
        np.testing.assert_array_equal(loaded.targets, expected.targets)
        assert loaded.targets.dtype == index_dtype(loaded.num_vertices) == np.int32
        for got, want, dtype in (
            (loaded.weights, expected.weights, np.float64),
            (loaded.edge_types, expected.edge_types, np.int32),
        ):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(got, want)
                assert got.dtype == dtype


# (file bytes, line named in the message or None, a fragment of it)
REJECTED = {
    "five fields": (b"0 1 2.0 3 4\n", 1, "expected 2-4 fields, got 5"),
    "one field": (b"# h\n\n7\n", 3, "expected 2-4 fields, got 1"),
    "row wider than the first": (b"0 1\n1 2\n2 3 1.5\n", 3, "expected 2 fields"),
    "row narrower than the first": (b"0 1 1.0\n# c\n1 2\n0 2 1.0\n", 3, "got 2"),
    "row narrower, no final newline": (b"0 1 1.0\n1 2", 2, "got 2"),
    "non-numeric": (b"zero one\n", 1, "cannot parse"),
    "fractional id": (b"0 1\n1.5 2\n", 2, "cannot parse b'1.5 2'"),
    "exponent id": (b"0 1\n1e3 2\n", 2, "cannot parse"),
    "id of 2**63": (b"99999999999999999999 1\n", 1, "cannot parse"),
    "type beyond int32": (b"0 1 1.0 2147483648\n", 1, "cannot parse"),
    "fractional type": (b"0 1 1.0 2.0\n", 1, "cannot parse"),
    "non-numeric weight": (b"0 1\t1,5\n", 1, "cannot parse"),
    "nan weight": (b"0 1 1.0\n\n1 0 nan\n", 3, "not finite"),
    "inf weight": (b"# vertices 3\n0 1 inf\n", 2, "not finite"),
    "header count": (b"0 1\n# vertices abc\n", 2, "vertex count"),
    "non-ASCII byte": (b"0 1\n1 \xff\n", 2, "non-ASCII byte"),
    "non-ASCII comment": (b"0 1\n# caf\xc3\xa9\n1 0\n", 2, "non-ASCII byte"),
    "lone carriage returns": (b"0 1\r1 2\r", 1, "cannot parse"),
    "empty without count": (b"# nothing\n", None, "empty graph"),
    # 29 TiB of offsets: numpy's MemoryError used to escape (ROADMAP 6e).
    "id no machine holds": (b"0 1\n0 4000000000000\n", 2, "vertex id 4000000000000"),
    "header no machine holds": (
        b"# vertices 4000000000000\n0 1\n", None, "does not fit in memory"
    ),
}


class TestEdgeListErrors:
    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2.0 3 4\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("zero one\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_empty_without_count(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_with_a_typed_error(self, case, tmp_path):
        content, line, fragment = REJECTED[case]
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(GraphFormatError) as caught:
            load_edge_list(path)
        message = str(caught.value)
        where = f"{path}:" if line is None else f"{path}:{line}:"
        assert message.startswith(where), message
        assert fragment in message

    def test_error_deep_in_a_large_file_names_its_line(self, tmp_path):
        path = tmp_path / "big.txt"
        rows = [f"{i} {i + 1}" for i in range(30_000)]
        rows[20_000] = "20000 x"
        path.write_text("# head\n" + "\n".join(rows) + "\n")
        with pytest.raises(GraphFormatError, match=r"big\.txt:20002: cannot parse"):
            load_edge_list(path)


class TestBinaryRoundTrip:
    def test_plain(self, graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_binary(graph, path)
        assert load_binary(path) == graph

    def test_full_featured(self, graph, tmp_path):
        rich = assign_random_edge_types(
            assign_random_weights(graph, seed=1), 4, seed=2
        )
        path = tmp_path / "rich.npz"
        save_binary(rich, path)
        loaded = load_binary(path)
        assert loaded == rich

    def test_undirected_flag_preserved(self, tmp_path):
        graph = from_edges(3, [(0, 1), (1, 2)], undirected=True)
        path = tmp_path / "undirected.npz"
        save_binary(graph, path)
        assert load_binary(path).is_undirected

    def test_missing_arrays(self, tmp_path):
        path = tmp_path / "broken.npz"
        save_checked(path, {"offsets": np.array([0, 1])}, np.uint32)
        with pytest.raises(GraphFormatError, match="missing CSR array"):
            load_binary(path)


def _resave(path, edit, seal):
    """Re-save the graph file at ``path`` after ``edit(arrays)``, with
    a checksum that is valid again (``seal``) or with none at all."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    del arrays["checksum"]
    edit(arrays)
    if seal:
        save_checked(path, arrays, np.uint32)
    else:
        np.savez_compressed(path, **arrays)


class TestMalformedContentIsTyped:
    """A graph file is believed only with its checksum: one without the
    member is refused as damaged (no writer ever produced it), and one
    sealed over impossible content raises a typed error too."""

    @pytest.fixture
    def saved(self, graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_binary(assign_random_weights(graph, seed=1), path)
        return path

    def test_file_without_checksum_is_refused(self, graph, saved):
        def retarget(arrays):
            arrays["targets"][5] = (arrays["targets"][5] + 1) % graph.num_vertices

        _resave(saved, retarget, seal=False)
        with pytest.raises(SnapshotCorruptError, match="no checksum member"):
            load_binary(saved)

    def test_untouched_file_without_checksum_is_refused_too(self, saved):
        _resave(saved, lambda arrays: None, seal=False)
        with pytest.raises(SnapshotCorruptError, match="no checksum member"):
            load_binary(saved)

    def test_stale_checksum_is_refused(self, saved):
        with np.load(saved) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["weights"][0] += 1.0
        np.savez_compressed(saved, **arrays)
        with pytest.raises(SnapshotCorruptError, match="checksum mismatch"):
            load_binary(saved)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays: arrays.pop("targets"),
            lambda arrays: arrays.pop("undirected"),
            lambda arrays: arrays.update(offsets=arrays["offsets"][:-1]),
            lambda arrays: arrays.update(weights=arrays["weights"][:-1]),
        ],
        ids=["no-targets", "no-undirected", "offsets-short", "weights-short"],
    )
    def test_sealed_but_impossible_content_is_typed(self, saved, edit):
        from repro.errors import ReproError

        _resave(saved, edit, seal=True)
        with pytest.raises(ReproError):
            load_binary(saved)
