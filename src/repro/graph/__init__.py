"""Graph substrate: CSR storage, builders, generators, partitioning.

This subpackage implements everything KnightKing assumes from its graph
layer (paper section 6.1): CSR storage with out-edges co-located with
their source vertex, undirected doubling, 1-D load-balanced vertex
partitioning, plus the synthetic topologies used throughout the
evaluation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
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
    prepared=("PreparedGraph", "prepare"),
    transform=(
        "connected_components",
        "induced_subgraph",
        "largest_component_subgraph",
        "reverse_graph",
    ),
    traversal=("BFSResult", "bfs"),
    wal=("WalRecoveryReport", "WriteAheadLog"),
)
