import numpy as np
import pytest

from kkbench.verify import (
    EdgeIndex,
    check_walks,
    chunks_of_corpus,
    chunks_of_paths,
    read_corpus,
)

# A directed 5-cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0, as CSR arrays.
OFFSETS = np.arange(6, dtype=np.int64)
TARGETS = np.array([1, 2, 3, 4, 0], dtype=np.int64)
EDGES = EdgeIndex.from_csr_arrays(OFFSETS, TARGETS)
STARTS = np.array([0, 1, 2], dtype=np.int64)


def walks(length=3):
    return [(np.arange(length + 1) + start) % 5 for start in STARTS]


def write(tmp_path, lines):
    path = tmp_path / "corpus.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return path


def as_lines(paths):
    return [" ".join(str(v) for v in path) for path in paths]


def check_file(path, size=2):
    # Two walks per chunk, so three walks also cross a chunk boundary.
    chunks = chunks_of_corpus(*read_corpus(path), size=size)
    return check_walks(chunks, STARTS, 3, EDGES)


def check_paths(paths, size=2):
    return check_walks(chunks_of_paths(paths, size=size), STARTS, 3, EDGES)


def test_accepts_a_correct_corpus_in_any_order(tmp_path):
    lines = as_lines(walks())
    backwards = check_file(write(tmp_path, lines[::-1]))
    assert backwards.problems == [] and backwards.walks == 3
    straight = check_file(write(tmp_path, lines))
    assert straight.digest == backwards.digest
    assert check_paths(walks()).digest == straight.digest
    assert check_paths(walks(), size=100).digest == straight.digest


def test_rejects_one_forged_edge(tmp_path):
    paths = walks()
    paths[1][2] = 0  # 1 -> 0 -> 4 : neither hop exists
    checked = check_file(write(tmp_path, as_lines(paths)))
    assert len(checked.problems) == 1
    assert "2 hops are not input edges (first: 2 -> 0)" in checked.problems[0]
    assert checked.digest != check_paths(walks()).digest


def test_a_hop_across_two_walks_is_not_checked_as_an_edge():
    # Walk 0 ends at 3 and walk 1 starts at 1: "3 -> 1" is not a hop.
    assert check_paths(walks(), size=100).problems == []


def test_rejects_one_short_line(tmp_path):
    lines = as_lines(walks())
    lines[2] = lines[2].rsplit(" ", 1)[0]
    problems = check_file(write(tmp_path, lines)).problems
    expected = "1 walks do not have 4 tokens (first: walk 2 has 3)"
    assert any(expected in p for p in problems)


def test_rejects_missing_walk_wrong_start_and_garbage(tmp_path):
    lines = as_lines(walks())
    short = check_file(write(tmp_path, lines[:2]))
    assert any("2 walks, expected 3" in p for p in short.problems)
    moved = [np.array([3, 4, 0, 1])] + walks()[1:]
    assert any("start vertices" in p for p in check_paths(moved).problems)
    lines[0] = "0 1 x 3"
    with pytest.raises(ValueError):
        read_corpus(write(tmp_path, lines))
    out_of_range = [np.array([0, 1, 2, 7])] + walks()[1:]
    assert any("not input edges" in p for p in check_paths(out_of_range).problems)


def test_overlay_follows_inserts_and_deletes():
    inserted = np.array([2 * 5 + 0], dtype=np.int64)  # 2 -> 0 now exists
    deleted = np.array([1 * 5 + 2], dtype=np.int64)  # 1 -> 2 is gone
    later = EDGES.overlaid(inserted, deleted)
    src = np.array([2, 1, 0], dtype=np.int64)
    dst = np.array([0, 2, 1], dtype=np.int64)
    assert later.contains(src, dst).tolist() == [True, False, True]
    assert EDGES.contains(src, dst).tolist() == [False, True, True]
