"""Extensions beyond the paper's evaluation: multi-head GAT, heterogeneous
graphs / R-GCN, and degree-sequence sampling."""

import numpy as np
import pytest

from repro.graph import HeteroGraph, erdos_renyi, random_hetero, sample_degree_sequence
from repro.graph.datasets import DATASETS
from repro.kernels import TLPGNNKernel
from repro.models import (
    GATLayer,
    MultiHeadGATLayer,
    RGCNLayer,
    build_rgcn_convs,
    reference_aggregate,
)


class TestMultiHeadGAT:
    def test_concat_shape(self, small_random, rng):
        layer = MultiHeadGATLayer.init(8, 4, 3, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X)
        assert out.shape == (small_random.num_vertices, 12)

    def test_mean_shape(self, small_random, rng):
        layer = MultiHeadGATLayer.init(8, 4, 3, rng, combine="mean")
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        assert layer.forward(small_random, X).shape == (
            small_random.num_vertices, 4,
        )

    def test_single_head_matches_gat(self, small_random, rng):
        head = GATLayer.init(8, 4, rng)
        multi = MultiHeadGATLayer(heads=[head])
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        np.testing.assert_allclose(
            multi.forward(small_random, X), head.forward(small_random, X)
        )

    def test_head_workloads_run_on_fused_kernel(self, small_random, rng):
        layer = MultiHeadGATLayer.init(8, 16, 2, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        kernel = TLPGNNKernel()
        for wl in layer.head_workloads(small_random, X):
            stats, _ = kernel.analyze(wl)
            assert stats.atomic_ops == 0  # still one fused atomic-free kernel

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            MultiHeadGATLayer(heads=[])
        with pytest.raises(ValueError):
            MultiHeadGATLayer.init(4, 4, 1, rng, combine="sum")


class TestHeteroGraph:
    @pytest.fixture
    def hetero(self):
        return random_hetero(50, {"cites": 200, "authors": 150}, seed=1)

    def test_construction(self, hetero):
        assert hetero.num_vertices == 50
        assert hetero.num_edges == 350
        assert set(hetero.relation_names) == {"cites", "authors"}

    def test_vertex_space_validated(self):
        g1 = erdos_renyi(10, 20, seed=0)
        g2 = erdos_renyi(11, 20, seed=0)
        with pytest.raises(ValueError, match="vertices"):
            HeteroGraph(num_vertices=10, relations={"a": g1, "b": g2})

    def test_needs_relations(self):
        with pytest.raises(ValueError, match="relation"):
            HeteroGraph(num_vertices=5, relations={})

    def test_merged_union(self, hetero):
        merged = hetero.merged()
        assert merged.num_edges == hetero.num_edges
        assert merged.num_vertices == 50

    def test_rgcn_layer_matches_manual(self, hetero, rng):
        X = rng.standard_normal((50, 8), dtype=np.float32)
        layer = RGCNLayer.init(hetero, 8, 4, rng)
        out = layer.forward(hetero, X, activation=False)
        manual = X @ layer.w_self
        for name, wl in build_rgcn_convs(hetero, X).items():
            manual = manual + reference_aggregate(wl) @ layer.w_rel[name]
        np.testing.assert_allclose(out, manual, rtol=1e-4, atol=1e-5)

    def test_per_relation_kernels_atomic_free(self, hetero, rng):
        X = rng.standard_normal((50, 16), dtype=np.float32)
        kernel = TLPGNNKernel()
        for wl in build_rgcn_convs(hetero, X).values():
            stats, _ = kernel.analyze(wl)
            assert stats.atomic_ops == 0


class TestDegreeSequences:
    def test_sums_to_edge_count(self):
        for abbr in ("CS", "PI", "RD"):
            d = sample_degree_sequence(abbr, scale=0.01 if abbr == "RD" else 1.0)
            spec = DATASETS[abbr]
            expected = spec.num_edges * (0.01 if abbr == "RD" else 1.0)
            assert d.sum() == pytest.approx(expected, rel=0.01)

    def test_full_size_cheap(self):
        d = sample_degree_sequence("RD")
        assert d.size == 232_000
        assert d.sum() == 114_000_000

    def test_hub_cap_respected(self):
        d = sample_degree_sequence("RD")
        assert d.max() <= 21_657 * 1.5

    def test_matches_generator_distribution(self):
        """The multinomial shortcut and the edge-level generator agree on
        the degree distribution (same family, same parameters)."""
        from repro.graph import load_dataset

        ds = load_dataset("PI", max_edges=200_000)
        d_fast = sample_degree_sequence("PI", scale=ds.scale)
        d_real = ds.graph.in_degrees
        assert d_fast.sum() == d_real.sum()
        assert np.quantile(d_fast, 0.99) == pytest.approx(
            np.quantile(d_real, 0.99), rel=0.25
        )

    def test_validation(self):
        with pytest.raises(KeyError):
            sample_degree_sequence("XX")
        with pytest.raises(ValueError):
            sample_degree_sequence("CS", scale=0.0)

    def test_regular_ish_family(self):
        d = sample_degree_sequence("OA")
        assert d.sum() == 1_100_000
        assert d.std() / d.mean() < 1.0
