"""The one rule for how wide an integer id array is — vertex ids, edge
indices, adjacency keys, recorded tokens — below ``graph`` and ``core``
so both ask it."""

from __future__ import annotations

import numpy as np

__all__ = ["index_dtype"]


def index_dtype(bound: int) -> np.dtype:
    """int32 when every value the array can hold lies in ``[-bound,
    bound)`` and ``bound <= 2**31``, else int64."""
    return np.dtype(np.int32 if bound <= np.iinfo(np.int32).max + 1 else np.int64)
