"""Heterogeneous-graph GNN on the TLPGNN substrate (the paper's future work).

"Our designs for the kernel is generic and should be also applicable to the
GNN models on heterogeneous graphs with reasonable modifications."  The
modification turns out to be composition, not kernel surgery: an R-GCN
layer runs the unchanged fused TLPGNN kernel once per relation and mixes
the per-relation aggregates with relation-specific weights.

    python examples/hetero_rgcn.py
"""

import numpy as np

from repro.graph import random_hetero
from repro.kernels import TLPGNNKernel
from repro.models import RelationalLayer, build_conv


def main() -> None:
    rng = np.random.default_rng(0)
    hetero = random_hetero(
        5_000,
        {"cites": 40_000, "writes": 15_000, "reviews": 8_000},
        seed=3,
    )
    print(f"Heterogeneous graph: {hetero.num_vertices:,} vertices, "
          f"{hetero.num_edges:,} edges over {len(hetero.relations)} relations")
    for name, g in hetero.relations.items():
        print(f"  {name:>8}: {g.num_edges:>7,} edges, avg degree {g.avg_degree:.1f}")

    X = rng.standard_normal((hetero.num_vertices, 32), dtype=np.float32)
    layer = RelationalLayer.init(hetero, 32, 16, rng)
    out = layer.forward(hetero, X)
    print(f"\nR-GCN forward: {X.shape} -> {out.shape}")

    # each relation's aggregation is one fused, atomic-free TLPGNN kernel
    kernel = TLPGNNKernel()
    total_ms = 0.0
    print("\nper-relation convolution profiles (one fused kernel each):")
    for name, g in hetero.relations.items():
        res = kernel.execute(build_conv("rgcn", g, X))
        total_ms += res.timing.gpu_seconds * 1e3
        print(
            f"  {name:>8}: {res.timing.gpu_seconds * 1e3:7.4f} ms, "
            f"{res.stats.total_bytes / 1e6:6.2f} MB traffic, "
            f"atomics={res.stats.atomic_ops}, "
            f"sector/req={res.stats.sectors_per_request:.2f}"
        )
    print(f"\ntotal modeled conv time: {total_ms:.4f} ms "
          f"({len(hetero.relations)} kernel launches — one per relation)")


if __name__ == "__main__":
    main()
