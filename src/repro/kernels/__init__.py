"""Graph-convolution kernels: TLPGNN (the contribution) and the baselines
the paper profiles against (push, edge-centric, pull thread-per-vertex,
GNNAdvisor neighbor groups), plus fusion building blocks."""

from .base import (
    ConvKernel,
    KernelResult,
    feature_row_sectors,
    feature_rounds,
    index_span_sectors,
    make_amap,
)
from .edge_centric import EdgeCentricKernel
from .edge_parallel_warp import EdgeParallelWarpKernel
from .fusion import streaming_kernel_stats, three_kernel_gat_stats
from .neighbor_group import NeighborGroupKernel, build_groups
from .pull_cta import PullCTAKernel
from .pull_thread import PullThreadKernel
from .push import PushKernel
from .tlpgnn import TLPGNNKernel, per_vertex_counters

__all__ = [
    "ConvKernel",
    "KernelResult",
    "feature_row_sectors",
    "feature_rounds",
    "index_span_sectors",
    "make_amap",
    "TLPGNNKernel",
    "per_vertex_counters",
    "PullThreadKernel",
    "PullCTAKernel",
    "EdgeParallelWarpKernel",
    "PushKernel",
    "EdgeCentricKernel",
    "NeighborGroupKernel",
    "build_groups",
    "streaming_kernel_stats",
    "three_kernel_gat_stats",
    "KERNELS",
]

#: Registry of the Table 1 / Table 2 kernel implementations by paper name.
KERNELS = {
    "pull": lambda: TLPGNNKernel(assignment="hardware"),
    "tlpgnn": lambda: TLPGNNKernel(),
    "half_warp": lambda: TLPGNNKernel(group_size=16, assignment="hardware"),
    "one_thread": PullThreadKernel,
    "one_cta": PullCTAKernel,
    "edge_parallel_warp": EdgeParallelWarpKernel,
    "push": PushKernel,
    "edge": EdgeCentricKernel,
    "gnnadvisor": NeighborGroupKernel,
}
