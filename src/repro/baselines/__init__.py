"""Comparison systems the paper evaluates against (sections 3 and 7).

* :class:`~repro.baselines.full_scan.FullScanWalkEngine` — exact
  dynamic walk by per-step O(deg) probability scans (Table 1, Fig 6);
* :class:`~repro.baselines.gemini.GeminiWalkEngine` — random-walk-
  adapted Gemini with mirrors and two-phase sampling (Tables 3/4,
  Fig 7);
* :mod:`~repro.baselines.precompute` — the infeasible second-order
  precompute baseline and its memory estimator (the 970TB/1.89PB
  claim), plus a tiny-graph exact oracle.
"""

from repro.baselines.full_scan import FullScanWalkEngine
from repro.baselines.gemini import GeminiWalkEngine
from repro.baselines.mixed import MixedNode2Vec
from repro.baselines.typed_metapath import TypedMetaPathWalkEngine
from repro.baselines.precompute import (
    ALIAS_BYTES_PER_ENTRY,
    ITS_BYTES_PER_ENTRY,
    PrecomputedNode2Vec,
    estimate_from_degree_stats,
    second_order_table_bytes,
    second_order_table_entries,
)

__all__ = [
    "FullScanWalkEngine",
    "GeminiWalkEngine",
    "MixedNode2Vec",
    "TypedMetaPathWalkEngine",
    "PrecomputedNode2Vec",
    "second_order_table_entries",
    "second_order_table_bytes",
    "estimate_from_degree_stats",
    "ITS_BYTES_PER_ENTRY",
    "ALIAS_BYTES_PER_ENTRY",
]
