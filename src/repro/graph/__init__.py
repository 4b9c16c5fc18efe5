"""Graph substrate: CSR storage, builders, generators, partitioning.

This subpackage implements everything KnightKing assumes from its graph
layer (paper section 6.1): CSR storage with out-edges co-located with
their source vertex, undirected doubling, 1-D load-balanced vertex
partitioning, plus the synthetic topologies used throughout the
evaluation.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graph.builder import (
        GraphBuilder,
        assign_power_law_weights,
        assign_random_weights,
        from_arrays,
        from_edges,
    )
    from repro.graph.csr import CSRGraph, DegreeStats
    from repro.graph.dynamic import (
        DynamicGraph,
        DynamicGraphStats,
        EdgeUpdate,
        EpochSnapshot,
        UpdateBatch,
        generate_churn_batches,
        parse_update_stream,
    )
    from repro.graph.datasets import (
        DATASETS,
        friendster_like,
        livejournal_like,
        load_dataset,
        twitter_like,
        ukunion_like,
    )
    from repro.graph.generators import (
        complete_graph,
        erdos_renyi_graph,
        hotspot_graph,
        ring_graph,
        rmat_graph,
        star_graph,
        truncated_power_law_graph,
        uniform_degree_graph,
    )
    from repro.graph.hetero import (
        BibliographicSchema,
        assign_random_edge_types,
        bibliographic_graph,
    )
    from repro.graph.io import load_binary, load_edge_list, save_binary, save_edge_list
    from repro.graph.partition import (
        ContiguousPartition,
        MirroredPartition,
        partition_graph,
    )
    from repro.graph.transform import (
        connected_components,
        induced_subgraph,
        largest_component_subgraph,
        reverse_graph,
    )
    from repro.graph.traversal import BFSResult, bfs
    from repro.graph.wal import WalRecoveryReport, WriteAheadLog

__all__ = [
    "DynamicGraph",
    "DynamicGraphStats",
    "EdgeUpdate",
    "EpochSnapshot",
    "UpdateBatch",
    "WalRecoveryReport",
    "WriteAheadLog",
    "generate_churn_batches",
    "parse_update_stream",
    "CSRGraph",
    "DegreeStats",
    "GraphBuilder",
    "from_edges",
    "from_arrays",
    "assign_random_weights",
    "assign_power_law_weights",
    "assign_random_edge_types",
    "bibliographic_graph",
    "BibliographicSchema",
    "uniform_degree_graph",
    "truncated_power_law_graph",
    "hotspot_graph",
    "erdos_renyi_graph",
    "rmat_graph",
    "ring_graph",
    "complete_graph",
    "star_graph",
    "livejournal_like",
    "friendster_like",
    "twitter_like",
    "ukunion_like",
    "load_dataset",
    "DATASETS",
    "load_edge_list",
    "save_edge_list",
    "load_binary",
    "save_binary",
    "ContiguousPartition",
    "MirroredPartition",
    "partition_graph",
    "bfs",
    "BFSResult",
    "reverse_graph",
    "induced_subgraph",
    "connected_components",
    "largest_component_subgraph",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    builder=(
        "GraphBuilder",
        "assign_power_law_weights",
        "assign_random_weights",
        "from_arrays",
        "from_edges",
    ),
    csr=("CSRGraph", "DegreeStats"),
    dynamic=(
        "DynamicGraph",
        "DynamicGraphStats",
        "EdgeUpdate",
        "EpochSnapshot",
        "UpdateBatch",
        "generate_churn_batches",
        "parse_update_stream",
    ),
    datasets=(
        "DATASETS",
        "friendster_like",
        "livejournal_like",
        "load_dataset",
        "twitter_like",
        "ukunion_like",
    ),
    generators=(
        "complete_graph",
        "erdos_renyi_graph",
        "hotspot_graph",
        "ring_graph",
        "rmat_graph",
        "star_graph",
        "truncated_power_law_graph",
        "uniform_degree_graph",
    ),
    hetero=("BibliographicSchema", "assign_random_edge_types", "bibliographic_graph"),
    io=("load_binary", "load_edge_list", "save_binary", "save_edge_list"),
    partition=("ContiguousPartition", "MirroredPartition", "partition_graph"),
    transform=(
        "connected_components",
        "induced_subgraph",
        "largest_component_subgraph",
        "reverse_graph",
    ),
    traversal=("BFSResult", "bfs"),
    wal=("WalRecoveryReport", "WriteAheadLog"),
)
