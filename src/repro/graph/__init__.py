"""Graph substrate: CSR container, generators, dataset registry, reordering,
and a lightweight partitioner."""

from .csr import CSRGraph, from_edge_list
from .datasets import (
    DATASET_ORDER,
    DATASETS,
    FIG8_SEVEN,
    LARGE_FOUR,
    Dataset,
    DatasetSpec,
    default_scale,
    load_dataset,
    sample_degree_sequence,
)
from .generators import (
    chain,
    complete,
    empty,
    erdos_renyi,
    power_law,
    star,
)
from .hetero import HeteroGraph, random_hetero
from .partition import Partition, edge_cut, partition_kway
from .reorder import ReorderResult, degree_sort

__all__ = [
    "CSRGraph",
    "from_edge_list",
    "Dataset",
    "DatasetSpec",
    "DATASETS",
    "DATASET_ORDER",
    "LARGE_FOUR",
    "FIG8_SEVEN",
    "load_dataset",
    "default_scale",
    "sample_degree_sequence",
    "erdos_renyi",
    "power_law",
    "star",
    "chain",
    "complete",
    "empty",
    "HeteroGraph",
    "random_hetero",
    "Partition",
    "partition_kway",
    "edge_cut",
    "ReorderResult",
    "degree_sort",
]
