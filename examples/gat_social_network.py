"""Two-layer GAT inference on a Reddit-like social graph.

The paper's motivating workload: attention-based neighbourhood aggregation
on a large, skewed social network.  Builds a 2-layer GAT with the full
layer API (dense projection + fused attention convolution), runs inference,
and profiles the convolution phase of each layer through the TLPGNN engine
— including the hybrid workload decision the engine makes per layer.

    python examples/gat_social_network.py
"""

import numpy as np

from repro.balance import choose_assignment
from repro.bench import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import TLPGNNEngine
from repro.models import GNNLayer


def main() -> None:
    config = BenchConfig(feat_dim=64)
    dataset = get_dataset("RD", config)
    graph = dataset.graph
    print(f"Social graph: {graph} (stand-in for Reddit at scale {dataset.scale:g})")

    policy = choose_assignment(dataset.full_num_vertices, dataset.full_avg_degree)
    print(
        f"Hybrid heuristic for the full-size workload "
        f"(|V|={dataset.full_num_vertices:,}, avg deg "
        f"{dataset.full_avg_degree:.0f}): {policy} assignment\n"
    )

    rng = np.random.default_rng(0)
    X = make_features(graph.num_vertices, 64, seed=7)

    # ---- full model forward (functional path) -------------------------
    layer1 = GNNLayer.init("gat", 64, 32, rng)
    layer2 = GNNLayer.init("gat", 32, 16, rng)
    h1 = layer1.forward(graph, X)
    h2 = layer2.forward(graph, h1, activation=False)
    print(f"2-layer GAT inference: {X.shape} -> {h1.shape} -> {h2.shape}")
    print(f"output stats: mean={h2.mean():.4f} std={h2.std():.4f}\n")

    # ---- profile the convolution phase of each layer ------------------
    engine = TLPGNNEngine()
    for li, feats in (("layer 1", X[:, :64]), ("layer 2", h1)):
        res = run_system(engine, "gat", dataset, config, X=np.ascontiguousarray(feats))
        assert res is not None
        print(f"--- {li} graph convolution ---")
        print(res.report.summary())
        print()

    # ---- fusion matters most here --------------------------------------
    unfused = run_system(TLPGNNEngine(fusion=False), "gat", dataset, config, X=X)
    fused = run_system(TLPGNNEngine(), "gat", dataset, config, X=X)
    assert fused is not None and unfused is not None
    print(
        f"kernel fusion: {unfused.report.kernel_launches} kernels "
        f"({unfused.runtime_ms:.2f} ms) -> {fused.report.kernel_launches} kernel "
        f"({fused.runtime_ms:.2f} ms), "
        f"{unfused.runtime_ms / fused.runtime_ms:.2f}x faster, "
        f"{unfused.report.global_mem_usage_bytes / 1e6:.1f} MB of edge "
        "intermediates eliminated"
    )


if __name__ == "__main__":
    main()
