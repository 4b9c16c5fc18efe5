"""The per-vertex alias build as it stood at 5c56dd5, before it went
behind one segment builder, kept verbatim as the reference: ``tests/test_table_reference.py`` requires
the tables of every path — from scratch, ``updated(...)`` chains, the
typed groups — to equal these bit for bit.  The alias indices here are
*flat* edge indices (the old layout); the tables now store them
vertex-local, so the comparison is ``starts + local == flat``.
Do not tidy — the point is that these are the old statements.
"""

import numpy as np


def reference_build_alias_arrays(weights):
    """Vose's algorithm as ``sampling/alias.py`` had it."""
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    total = weights.sum()

    prob = np.empty(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    scaled = weights * (n / total)

    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    # Leftovers are exactly 1 up to floating-point error.
    for index in large:
        prob[index] = 1.0
    for index in small:
        prob[index] = 1.0
    return prob, alias


def reference_alias_tables(graph, static_weights):
    """``VertexAliasTables.__init__``'s loop -> (prob, flat alias, totals)."""
    prob_out = np.empty(graph.num_edges, dtype=np.float64)
    alias_out = np.empty(graph.num_edges, dtype=np.int64)
    totals = np.zeros(graph.num_vertices, dtype=np.float64)
    for vertex in range(graph.num_vertices):
        start, end = graph.edge_range(vertex)
        if start == end:
            continue
        slice_weights = static_weights[start:end]
        total = slice_weights.sum()
        totals[vertex] = total
        if total <= 0:
            # All-zero static weights: vertex is a dead end for
            # sampling purposes; mark buckets unusable.
            prob_out[start:end] = 0.0
            alias_out[start:end] = start
            continue
        prob, alias = reference_build_alias_arrays(slice_weights)
        prob_out[start:end] = prob
        alias_out[start:end] = alias + start  # flatten local indices
    return prob_out, alias_out, totals
