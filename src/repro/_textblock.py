"""Blocks of numbers as text without a Python step per number.

The edge-list writer (:func:`repro.graph.io.save_edge_list`) and the
corpus writer (:func:`repro.core.trace.write_walks`) both emit millions
of small decimal numbers.  Here a column of numbers becomes one
``uint8`` matrix, a row per number, NUL wherever a number is shorter
than the widest; a block of text is such matrices side by side, each
followed by its separator byte, and the text itself is the non-NUL
bytes in order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["decimal", "text_matrix", "join_columns"]


def text_matrix(strings: Iterable[str]) -> np.ndarray:
    """One row of ASCII bytes per string, NUL padded to the longest."""
    packed = np.array(list(strings), dtype="S")
    return packed.view(np.uint8).reshape(packed.size, -1)


def decimal(values: np.ndarray) -> np.ndarray:
    """Decimal text of an integer array, as ``str(int(v))`` writes it.

    Which of two ways is chosen from the block itself.  Values spanning
    fewer ids than there are values (the vertex ids of a walk block:
    12 000 ids, 166 000 tokens) are looked up in a table holding each id
    of the span formatted once.  Otherwise (ids far apart, a short
    block) a table would cost more ``str`` calls than it saves, and the
    digits are peeled off arithmetically, one array pass per digit.
    """
    values = np.asarray(values, dtype=np.int64)
    if not values.size:
        return np.zeros((0, 1), dtype=np.uint8)
    low, high = int(values.min()), int(values.max())
    if high - low < values.size:
        names = text_matrix(map(str, range(low, high + 1)))
        return names.take(values - low, axis=0)
    negative = values < 0
    # As uint64 the magnitude of the most negative int64 is exact too.
    rest = np.where(negative, -values, values).view(np.uint64)
    width = len(str(int(rest.max())))
    text = np.empty((values.size, 1 + width), dtype=np.uint8)
    text[:, 0] = np.where(negative, ord("-"), 0)
    shown = np.ones(values.size, dtype=bool)  # the units digit always is
    for column in range(width, 0, -1):
        rest, digit = np.divmod(rest, np.uint64(10))
        text[:, column] = np.where(shown, digit + ord("0"), 0)
        shown = rest != 0
    return text


def join_columns(
    columns: Sequence[np.ndarray], separators: Sequence[np.ndarray | int]
) -> str:
    """Row by row, each column's text followed by its separator byte.

    *columns* are equally tall byte matrices (:func:`decimal`,
    :func:`text_matrix`); a separator is one byte for the whole column
    or one per row.  An all-NUL row contributes only its separator.
    """
    widths = [column.shape[1] for column in columns]
    block = np.empty((len(columns[0]), sum(widths) + len(widths)), dtype=np.uint8)
    start = 0
    for column, width, separator in zip(columns, widths, separators):
        block[:, start : start + width] = column
        block[:, start + width] = separator
        start += width + 1
    flat = block.ravel()
    return flat[flat != 0].tobytes().decode("ascii")
