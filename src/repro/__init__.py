"""TLPGNN reproduction: a lightweight two-level parallelism paradigm for
GNN computation, on a modeled GPU.

Subpackages
-----------
graph       CSR container, generators, Table-4 dataset registry, reorder,
            partitioner.
gpusim      GPU execution model (spec, memory, occupancy, scheduling,
            atomics, cost model, profiler, micro-simulator).
kernels     Graph-convolution kernels: TLPGNN and the baselines the paper
            profiles (push, edge-centric, pull thread/warp, neighbor-group).
balance     Hybrid dynamic workload assignment (Section 5).
models      GCN / GIN / GraphSAGE / GAT conv semantics and layers.
frameworks  System baselines: DGL-like, GNNAdvisor-like, FeatGraph-like,
            and the TLPGNN engine.
bench       Table/figure regeneration harness.
obs         Observability: span tracer, metrics registry, Chrome-trace
            timelines with per-SM block tracks, profile archive, and one
            regression engine (policy table + comparison) behind diff and
            regress.
"""

__version__ = "1.0.0"

from . import balance, bench, frameworks, graph, gpusim, kernels, models, obs

__all__ = [
    "graph",
    "gpusim",
    "kernels",
    "balance",
    "models",
    "frameworks",
    "bench",
    "obs",
    "__version__",
]
