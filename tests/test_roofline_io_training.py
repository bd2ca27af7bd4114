"""Roofline classification, graph serialization, and GCN training."""

import numpy as np
import pytest

from repro.gpusim import V100, machine_balance, roofline
from repro.graph import (
    erdos_renyi,
    load_dataset,
    load_dataset_file,
    load_graph,
    save_dataset,
    save_graph,
)
from repro.kernels import EdgeCentricKernel, TLPGNNKernel
from repro.models import GCNClassifier, cross_entropy, normalized_adjacency

from .conftest import make_workload


class TestRoofline:
    def test_machine_balance_positive(self):
        mb = machine_balance(V100)
        assert 0.1 < mb < 100

    def test_bandwidth_bound_kernel(self, small_random):
        wl = make_workload(small_random, "gcn", 128)
        res = TLPGNNKernel(assignment="hardware").execute(wl)
        pt = roofline(res.stats, res.timing, V100)
        assert pt.bound_by in ("bandwidth", "latency", "compute")
        assert 0.0 < pt.ceiling_utilization <= 1.0
        assert "bound" in pt.describe()

    def test_atomic_kernel_classified(self, skewed_graph):
        wl = make_workload(skewed_graph, "gin", 64)
        res = EdgeCentricKernel().execute(wl)
        pt = roofline(res.stats, res.timing, V100)
        # scatter with per-edge atomics: the atomic ceiling should at least
        # register as a large term
        assert pt.bound_by in ("atomic", "bandwidth", "latency")

    def test_intensity_decreases_with_feat(self, small_random):
        lo = make_workload(small_random, "gin", 8)
        hi = make_workload(small_random, "gin", 128)
        k = TLPGNNKernel(assignment="hardware")
        r_lo, r_hi = k.execute(lo), k.execute(hi)
        ai_lo = roofline(r_lo.stats, r_lo.timing, V100).arithmetic_intensity
        ai_hi = roofline(r_hi.stats, r_hi.timing, V100).arithmetic_intensity
        assert ai_hi < ai_lo  # big rows move more bytes per instruction


class TestGraphIO:
    def test_graph_roundtrip(self, tmp_path, small_random):
        p = save_graph(small_random, tmp_path / "g")
        assert p.suffix == ".npz"
        back = load_graph(p)
        assert np.array_equal(back.indptr, small_random.indptr)
        assert np.array_equal(back.indices, small_random.indices)
        assert back.name == small_random.name

    def test_dataset_roundtrip(self, tmp_path):
        ds = load_dataset("PD")
        p = save_dataset(ds, tmp_path / "pd.npz")
        back = load_dataset_file(p)
        assert back.abbr == "PD"
        assert back.scale == ds.scale
        assert np.array_equal(back.graph.indices, ds.graph.indices)
        assert back.full_num_vertices == ds.full_num_vertices

    def test_load_validates(self, tmp_path, small_random):
        # a corrupted file (indices mismatch) must fail CSR validation
        import json

        p = save_graph(small_random, tmp_path / "g")
        data = dict(np.load(p))
        data["indices"] = data["indices"][:-1]
        np.savez(p, **data)
        with pytest.raises(ValueError):
            load_graph(p)


def _community_task(rng, n=120, classes=3):
    """Synthetic node classification: label-correlated features + edges."""
    labels = rng.integers(0, classes, size=n)
    # features: class mean + noise
    means = rng.standard_normal((classes, 8)) * 2
    X = (means[labels] + rng.standard_normal((n, 8))).astype(np.float32)
    # homophilous edges: mostly within class
    src, dst = [], []
    for _ in range(n * 8):
        u = int(rng.integers(0, n))
        same = np.flatnonzero(labels == labels[u])
        v = int(rng.choice(same)) if rng.random() < 0.8 else int(rng.integers(0, n))
        if u != v:
            src.append(v)
            dst.append(u)
    from repro.graph import from_edge_list

    return from_edge_list(src, dst, n), X, labels


class TestTraining:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        loss, grad = cross_entropy(logits, labels)
        # manual
        from repro.models import functional as F

        probs = F.softmax(logits, axis=1)
        manual = -np.mean(np.log(probs[np.arange(5), labels]))
        assert loss == pytest.approx(manual, rel=1e-9)
        assert grad.shape == logits.shape

    def test_mask_validated(self, rng):
        logits = rng.standard_normal((3, 2))
        with pytest.raises(ValueError, match="mask"):
            cross_entropy(logits, np.zeros(3, int), np.zeros(3, bool))

    def test_gradient_check(self, rng):
        """Analytic gradients match numerical differentiation."""
        g, X, labels = _community_task(rng, n=30)
        model = GCNClassifier.init(8, 6, 3, rng)

        def loss_at(w1, w2):
            m = GCNClassifier(w1=w1, w2=w2)
            logits = m.forward(g, X)
            return cross_entropy(logits, labels)[0]

        logits = model.forward(g, X)
        _, grad = cross_entropy(logits, labels)
        dW1, dW2 = model.gradients(grad)

        eps = 1e-6
        for W, dW, which in ((model.w1, dW1, 1), (model.w2, dW2, 2)):
            idx = (1, 2)
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += eps
            Wm[idx] -= eps
            num = (
                (loss_at(Wp, model.w2) - loss_at(Wm, model.w2)) / (2 * eps)
                if which == 1
                else (loss_at(model.w1, Wp) - loss_at(model.w1, Wm)) / (2 * eps)
            )
            assert dW[idx] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_loss_decreases(self, rng):
        g, X, labels = _community_task(rng)
        model = GCNClassifier.init(8, 16, 3, rng)
        losses = model.train(g, X, labels, epochs=60, lr=0.2)
        assert losses[-1] < losses[0] * 0.6

    def test_learns_communities(self, rng):
        g, X, labels = _community_task(rng)
        model = GCNClassifier.init(8, 16, 3, rng)
        model.train(g, X, labels, epochs=120, lr=0.2)
        assert model.accuracy(g, X, labels) > 0.85

    def test_train_mask_generalization(self, rng):
        g, X, labels = _community_task(rng)
        mask = rng.random(g.num_vertices) < 0.5
        model = GCNClassifier.init(8, 16, 3, rng)
        model.train(g, X, labels, train_mask=mask, epochs=120, lr=0.2)
        assert model.accuracy(g, X, labels, mask=~mask) > 0.7

    def test_gradients_require_forward(self, rng):
        model = GCNClassifier.init(4, 4, 2, rng)
        with pytest.raises(RuntimeError):
            model.gradients(np.zeros((3, 2)))

    def test_normalized_adjacency_rows(self, tiny_graph):
        A = normalized_adjacency(tiny_graph)
        assert A.shape == (4, 4)
        # diagonal carries the self-loop term
        assert np.all(A.diagonal() > 0)

    def test_weight_decay_shrinks(self, rng):
        g, X, labels = _community_task(rng, n=40)
        a = GCNClassifier.init(8, 8, 3, rng)
        b = GCNClassifier(w1=a.w1.copy(), w2=a.w2.copy())
        a.train(g, X, labels, epochs=30, lr=0.1)
        b.train(g, X, labels, epochs=30, lr=0.1, weight_decay=0.5)
        assert np.linalg.norm(b.w1) < np.linalg.norm(a.w1)


class TestNetworkXBridge:
    def test_roundtrip_directed(self, small_random):
        import networkx as nx

        from repro.graph import from_networkx, to_networkx

        nxg = to_networkx(small_random)
        back = from_networkx(nxg)
        # parallel edges collapse in NetworkX; compare unique edge sets
        import numpy as np

        ours = set(zip(*map(lambda a: a.tolist(), small_random.edge_list()), strict=True))
        theirs = set(zip(*map(lambda a: a.tolist(), back.edge_list()), strict=True))
        assert ours == theirs

    def test_undirected_symmetrized(self):
        import networkx as nx

        from repro.graph import from_networkx

        g = from_networkx(nx.path_graph(4))
        assert g.num_edges == 6  # 3 undirected edges, both directions
        assert 1 in g.neighbors(0) and 0 in g.neighbors(1)

    def test_karate_runs_through_kernel(self):
        import networkx as nx
        import numpy as np

        from repro.graph import from_networkx
        from repro.kernels import TLPGNNKernel
        from repro.models import build_conv

        g = from_networkx(nx.karate_club_graph())
        X = np.random.default_rng(0).standard_normal((34, 8), dtype=np.float32)
        wl = build_conv("gcn", g, X)
        stats, _ = TLPGNNKernel().analyze(wl)
        stats.validate()
        assert stats.load_requests > 0 and stats.atomic_ops == 0
