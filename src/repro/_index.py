"""The one rule for how wide an integer id array is — vertex ids, edge
indices, adjacency keys, recorded tokens — below ``graph`` and ``core``
so both ask it."""

from __future__ import annotations

import numpy as np

__all__ = ["index_dtype"]


_INT32 = np.dtype(np.int32)
_INT64 = np.dtype(np.int64)


def index_dtype(bound: int) -> np.dtype:
    """int32 when every value the array can hold lies in ``[-bound,
    bound)`` and ``bound <= 2**31``, else int64."""
    return _INT32 if bound <= 2**31 else _INT64
