"""GNN model conv semantics vs naive per-vertex loops, and the one layer."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import mp
from repro.models import (
    MODEL_NAMES,
    GNNLayer,
    MultiHeadLayer,
    build_conv,
    reference_aggregate,
)
from repro.models import functional as F
from repro.models.convspec import AttentionSpec, ConvWorkload

from ..conftest import make_workload

#: a model added with ``mp.register``: weighted max with a (1+eps) self term
CUSTOM = "edgemaxtest"
#: every registered builtin plus the custom spec
LAYER_MODELS = (*mp.BUILTIN_SPECS, CUSTOM)


def _custom_spec():
    return (
        mp.MessageSpec(feature="src", scale=mp.EdgeScalar()),
        mp.ReduceSpec(op="max", self_term=mp.SelfTerm(kind="eps", eps=0.25)),
    )


@pytest.fixture
def custom_model():
    mp.register(CUSTOM, _custom_spec)
    yield CUSTOM
    mp.unregister(CUSTOM)


def naive_conv(workload) -> np.ndarray:
    """Literal per-vertex double loop over Eq. (1) of the paper."""
    g = workload.graph
    X = workload.X.astype(np.float64)
    w = workload.resolved_edge_weights().astype(np.float64)
    out = np.zeros_like(X)
    for u in range(g.num_vertices):
        lo, hi = g.indptr[u], g.indptr[u + 1]
        msgs = [w[i] * X[g.indices[i]] for i in range(lo, hi)]
        if msgs:
            reduce_fn = {"sum": np.sum, "mean": np.mean, "max": np.max}
            out[u] = reduce_fn[workload.reduce](msgs, axis=0)
        if workload.self_coeff is not None:
            out[u] += workload.self_coeff[u] * X[u]
    return out.astype(np.float32)


class TestReferenceVsNaive:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_all_models(self, small_random, model):
        wl = make_workload(small_random, model, 8)
        np.testing.assert_allclose(
            reference_aggregate(wl), naive_conv(wl), rtol=1e-4, atol=1e-5
        )

    def test_max_reduce(self, small_random, rng):
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        wl = ConvWorkload(graph=small_random, X=X, reduce="max")
        np.testing.assert_allclose(
            reference_aggregate(wl), naive_conv(wl), rtol=1e-5, atol=1e-6
        )

    def test_empty_neighborhoods_zero(self, star_graph, rng):
        X = rng.standard_normal((star_graph.num_vertices, 4), dtype=np.float32)
        wl = ConvWorkload(graph=star_graph, X=X, reduce="sum")
        out = reference_aggregate(wl)
        assert np.all(out[1:] == 0)
        np.testing.assert_allclose(out[0], X[1:].sum(axis=0), rtol=1e-4)


class TestGCN:
    def test_norm_symmetric(self, tiny_graph):
        w = mp.SymNorm().weights(tiny_graph)
        self_coeff = mp.SelfTerm(kind="scaled").coeff(tiny_graph)
        assert w.shape == (tiny_graph.num_edges,)
        assert np.all(w > 0) and np.all(w <= 1.0)
        # vertex A (deg 3): self coeff 1/4
        assert self_coeff[0] == pytest.approx(0.25)

    def test_norm_matches_formula(self, small_random):
        """w(u,v) = 1/sqrt((d_u+1)(d_v+1)) per edge, and the compiled gcn
        workload carries exactly the sym-norm weights and self coefficients."""
        src, dst = small_random.edge_list()
        deg = small_random.in_degrees.astype(np.float64) + 1.0
        expected = (1.0 / np.sqrt(deg[dst] * deg[src])).astype(np.float32)
        w = mp.SymNorm().weights(small_random)
        np.testing.assert_allclose(w, expected, rtol=1e-6)
        wl = make_workload(small_random, "gcn", 4)
        assert wl.edge_weights.tobytes() == w.tobytes()
        assert wl.self_coeff.tobytes() == mp.SelfTerm(kind="scaled").coeff(
            small_random
        ).tobytes()

    def test_figure1_example(self, tiny_graph):
        """Vertex A aggregates B, C, D weighted by degree (paper Fig. 1)."""
        X = np.eye(4, dtype=np.float32)
        wl = build_conv("gcn", tiny_graph, X)
        out = reference_aggregate(wl)
        # A's new feature mixes contributions from B, C, D and itself
        assert np.all(out[0] > 0)

    def test_layer_shapes(self, small_random, rng):
        layer = GNNLayer.init("gcn", 8, 5, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X)
        assert out.shape == (small_random.num_vertices, 5)
        assert np.all(out >= 0)  # ReLU

    def test_layer_no_activation(self, small_random, rng):
        layer = GNNLayer.init("gcn", 8, 5, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X, activation=False)
        assert np.any(out < 0)


class TestGIN:
    def test_self_term(self, chain_graph, rng):
        X = rng.standard_normal((chain_graph.num_vertices, 4), dtype=np.float32)
        wl = build_conv("gin", chain_graph, X)
        out = reference_aggregate(wl)
        # vertex 0 has no in-edges: output = (1+eps)*X[0] with eps=0
        np.testing.assert_allclose(out[0], X[0], rtol=1e-6)
        # vertex i>0: X[i] + X[i-1]
        np.testing.assert_allclose(out[3], X[3] + X[2], rtol=1e-5)

    def test_eps(self, chain_graph, rng):
        X = rng.standard_normal((chain_graph.num_vertices, 4), dtype=np.float32)
        wl = mp.bind(
            "gin",
            mp.MessageSpec(feature="src"),
            mp.ReduceSpec(op="sum", self_term=mp.SelfTerm(kind="eps", eps=0.5)),
            chain_graph,
            X,
        ).workload()
        out = reference_aggregate(wl)
        np.testing.assert_allclose(out[0], 1.5 * X[0], rtol=1e-6)

    def test_layer(self, small_random, rng):
        layer = GNNLayer.init("gin", 8, 16, rng)
        w2 = F.xavier_uniform((16, 4), rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        assert F.linear(layer.forward(small_random, X), w2).shape == (
            small_random.num_vertices, 4,
        )


class TestSAGE:
    def test_mean_aggregation(self, chain_graph, rng):
        X = rng.standard_normal((chain_graph.num_vertices, 4), dtype=np.float32)
        wl = build_conv("sage", chain_graph, X)
        out = reference_aggregate(wl)
        np.testing.assert_allclose(out[5], X[4], rtol=1e-5)  # mean of one
        assert np.all(out[0] == 0)  # no neighbours

    def test_graphsage_alias(self, small_random, rng):
        X = rng.standard_normal((small_random.num_vertices, 4), dtype=np.float32)
        a = build_conv("sage", small_random, X)
        b = build_conv("graphsage", small_random, X)
        np.testing.assert_allclose(
            reference_aggregate(a), reference_aggregate(b)
        )

    def test_layer(self, small_random, rng):
        layer = GNNLayer.init("sage", 8, 6, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        assert layer.forward(small_random, X).shape == (
            small_random.num_vertices, 6,
        )


class TestGAT:
    def test_attention_weights_normalized(self, gat_workload):
        w = gat_workload.resolved_edge_weights()
        g = gat_workload.graph
        sums = np.zeros(g.num_vertices)
        dst = np.repeat(np.arange(g.num_vertices), g.in_degrees)
        np.add.at(sums, dst, w.astype(np.float64))
        nonempty = g.in_degrees > 0
        np.testing.assert_allclose(sums[nonempty], 1.0, rtol=1e-5)

    def test_output_in_convex_hull(self, small_random, rng):
        # softmax weights are convex: each output row bounded by neighbour
        # feature extremes
        X = rng.standard_normal((small_random.num_vertices, 4), dtype=np.float32)
        wl = make_workload(small_random, "gat", 4)
        out = reference_aggregate(wl)
        assert np.all(out <= wl.X.max() + 1e-5)
        assert np.all(out >= wl.X.min() - 1e-5)

    def test_layer(self, small_random, rng):
        layer = GNNLayer.init("gat", 8, 6, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        assert layer.forward(small_random, X).shape == (
            small_random.num_vertices, 6,
        )


class TestConvWorkloadValidation:
    def test_bad_reduce(self, tiny_graph):
        with pytest.raises(ValueError, match="reduce"):
            ConvWorkload(graph=tiny_graph, X=np.ones((4, 2), np.float32),
                         reduce="prod")

    def test_bad_feature_rows(self, tiny_graph):
        with pytest.raises(ValueError, match="rows"):
            ConvWorkload(graph=tiny_graph, X=np.ones((3, 2), np.float32))

    def test_bad_edge_weights(self, tiny_graph):
        with pytest.raises(ValueError, match="per edge"):
            ConvWorkload(
                graph=tiny_graph,
                X=np.ones((4, 2), np.float32),
                edge_weights=np.ones(3, np.float32),
            )

    def test_attention_excludes_weights(self, tiny_graph):
        att = AttentionSpec(
            att_src=np.zeros(4, np.float32), att_dst=np.zeros(4, np.float32)
        )
        with pytest.raises(ValueError, match="exclusive"):
            ConvWorkload(
                graph=tiny_graph,
                X=np.ones((4, 2), np.float32),
                edge_weights=np.ones(6, np.float32),
                attention=att,
            )

    def test_attention_requires_sum(self, tiny_graph):
        att = AttentionSpec(
            att_src=np.zeros(4, np.float32), att_dst=np.zeros(4, np.float32)
        )
        with pytest.raises(ValueError, match="sum"):
            ConvWorkload(
                graph=tiny_graph,
                X=np.ones((4, 2), np.float32),
                attention=att,
                reduce="mean",
            )

    def test_unknown_model(self, tiny_graph):
        with pytest.raises(ValueError, match="unknown model"):
            build_conv("transformer", tiny_graph, np.ones((4, 2), np.float32))

    def test_unknown_model_lists_the_registry(self, tiny_graph):
        with pytest.raises(ValueError, match="unknown model") as err:
            build_conv("transformer", tiny_graph, np.ones((4, 2), np.float32))
        assert "'graphsage'" in str(err.value)
        assert "'rgcn'" in str(err.value)

    def test_registered_model_accepted(self, tiny_graph, custom_model):
        wl = build_conv(custom_model, tiny_graph, np.ones((4, 2), np.float32))
        assert wl.reduce == "max"
        with pytest.raises(ValueError, match=custom_model):
            build_conv("transformer", tiny_graph, np.ones((4, 2), np.float32))

    def test_edge_scalar_loads(self, small_random, rng):
        gcn = make_workload(small_random, "gcn", 4)
        gin = make_workload(small_random, "gin", 4)
        gat = make_workload(small_random, "gat", 4)
        assert gcn.edge_scalar_loads == 1
        assert gin.edge_scalar_loads == 0
        assert gat.edge_scalar_loads == 1


def _formula(layer, graph, X, *, activation=True):
    """act(reference_aggregate(bind(terms, graph, X @ W + b)) [+ X @ W_self])."""
    h = X @ layer.weight + layer.bias
    out = reference_aggregate(
        mp.bind(layer.model, layer.message, layer.reduce, graph, h).workload()
    )
    if layer.self_weight is not None:
        out = out + X @ layer.self_weight
    return np.maximum(out, 0.0) if activation else out


@pytest.mark.usefixtures("custom_model")
class TestGNNLayer:
    """The one layer over every registered spec, builtin or user-added."""

    @pytest.mark.parametrize("model", LAYER_MODELS)
    def test_terms_are_the_registered_spec(self, model, rng):
        layer = GNNLayer.init(model, 8, 5, rng)
        message, reduce_ = mp.resolve(model)
        assert layer.message.signature() == message.signature()
        assert layer.reduce.signature() == reduce_.signature()
        concat = reduce_.self_term is not None and reduce_.self_term.kind == "concat"
        assert (layer.self_weight is not None) == concat

    @pytest.mark.parametrize("activation", [True, False])
    @pytest.mark.parametrize("model", LAYER_MODELS)
    def test_forward_is_the_formula(self, model, activation, small_random, rng):
        layer = GNNLayer.init(model, 8, 5, rng)
        layer.bias = rng.standard_normal(5, dtype=np.float32)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X, activation=activation)
        expected = _formula(layer, small_random, X, activation=activation)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", LAYER_MODELS)
    def test_shapes_relu_and_sign(self, model, small_random, rng):
        layer = GNNLayer.init(model, 8, 5, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X)
        assert out.shape == (small_random.num_vertices, 5)
        assert np.all(out >= 0)  # ReLU
        assert np.any(layer.forward(small_random, X, activation=False) < 0)

    @pytest.mark.parametrize("model", LAYER_MODELS)
    def test_multi_head_over_any_spec(self, model, small_random, rng):
        layer = MultiHeadLayer.init(model, 8, 4, 2, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X)
        assert out.shape == (small_random.num_vertices, 8)
        for i, head in enumerate(layer.heads):
            assert out[:, 4 * i : 4 * (i + 1)].tobytes() == head.forward(
                small_random, X
            ).tobytes()

    def test_attention_vectors_drawn_after_the_weight(self):
        layer = GNNLayer.init("gat", 8, 5, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        weight = F.xavier_uniform((8, 5), rng)
        a_src = F.xavier_uniform((5, 1), rng)[:, 0]
        a_dst = F.xavier_uniform((5, 1), rng)[:, 0]
        assert layer.weight.tobytes() == weight.tobytes()
        assert layer.message.scale.a_src.tobytes() == a_src.tobytes()
        assert layer.message.scale.a_dst.tobytes() == a_dst.tobytes()
        # the registered spec keeps drawing its vectors per bind
        assert mp.resolve("gat")[0].scale.a_src is None

    def test_gin_matches_aggregate_first(self, small_random, rng):
        """GIN's conv then its 2-layer MLP: agg(X) @ W1 -> ReLU -> @ W2."""
        layer = GNNLayer.init("gin", 8, 16, rng)
        w2 = F.xavier_uniform((16, 4), rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = F.linear(layer.forward(small_random, X), w2)
        agg = reference_aggregate(build_conv("gin", small_random, X))
        expected = F.linear(F.relu(F.linear(agg, layer.weight)), w2)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_sage_matches_aggregate_first(self, small_random, rng):
        """ReLU(X @ W_self + mean(N(X)) @ W_neigh)."""
        layer = GNNLayer.init("sage", 8, 6, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        agg = reference_aggregate(build_conv("sage", small_random, X))
        expected = F.relu(
            F.linear(X, layer.self_weight) + F.linear(agg, layer.weight)
        )
        np.testing.assert_allclose(
            layer.forward(small_random, X), expected, rtol=1e-4, atol=1e-5
        )


def test_mp_imports_only_the_workload_carrier_from_models():
    """repro.mp defines every model; it reads only the numeric carrier
    (convspec) and the dense ops (functional) from repro.models."""
    allowed = {"repro.models.convspec", "repro.models.functional"}
    package = ["repro", "mp"]
    imported = set()
    for path in sorted(Path(mp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join([*base, *([node.module] if node.module else [])])
                imported.add(module)
                imported.update(f"{module}.{a.name}" for a in node.names)
    from_models = {
        m for m in imported
        if m.startswith("repro.models.") and m.count(".") == 2
    }
    assert from_models <= allowed, sorted(from_models - allowed)
