"""The optimizer's translation-validation gate: a semantics-breaking
rewrite raises IllegalRewriteError *at rewrite time*, via EQ002."""

from dataclasses import replace

import pytest

from repro.frameworks import SYSTEMS
from repro.opt import IllegalRewriteError, PassPipeline, PlanPass


class _DoubleFeatures(PlanPass):
    """Deliberately broken: silently rescales the input features —
    re-lints clean (the effect tables are untouched), computes 2x."""

    name = "double-features"

    def apply(self, plan, ctx):
        w = plan.compute.workload
        return replace(
            plan, compute=replace(plan.compute, workload=replace(w, X=w.X * 2))
        )


class _SwapGraph(PlanPass):
    """Deliberately broken: gathers through a perturbed graph."""

    name = "swap-graph"

    def apply(self, plan, ctx):
        import numpy as np

        from repro.graph.csr import CSRGraph

        g = plan.compute.workload.graph
        indices = np.array(g.indices, copy=True)
        if indices.size < 2:
            return None
        indices[0], indices[-1] = indices[-1], indices[0]
        swapped = CSRGraph(
            indptr=np.array(g.indptr, copy=True), indices=indices,
            num_vertices=g.num_vertices, name=g.name,
        )
        w = plan.compute.workload
        return replace(
            plan,
            compute=replace(plan.compute, workload=replace(w, graph=swapped)),
        )


@pytest.fixture(scope="module")
def tlpgnn_plan(request):
    from repro.bench.harness import BenchConfig, get_dataset, make_features

    config = BenchConfig()
    ds = get_dataset("CR", config)
    X = make_features(ds.graph.num_vertices, config.feat_dim,
                      seed=config.seed)
    spec = config.spec_for(ds)
    return SYSTEMS["TLPGNN"]().lower("gcn", ds, X, spec), spec, ds


class TestEquivalenceGate:
    def test_feature_rescale_raises_eq002_at_rewrite_time(self, tlpgnn_plan):
        plan, spec, ds = tlpgnn_plan
        pipe = PassPipeline(passes=[_DoubleFeatures()])
        with pytest.raises(IllegalRewriteError) as exc:
            pipe.run(plan, spec, dataset=ds)
        assert exc.value.pass_name == "double-features"
        assert any(f.rule == "EQ002" for f in exc.value.findings)

    def test_graph_perturbation_raises_eq002(self, tlpgnn_plan):
        plan, spec, ds = tlpgnn_plan
        pipe = PassPipeline(passes=[_SwapGraph()])
        with pytest.raises(IllegalRewriteError) as exc:
            pipe.run(plan, spec, dataset=ds)
        assert any(f.rule == "EQ002" for f in exc.value.findings)

    def test_identity_pipeline_is_gate_clean(self, tlpgnn_plan):
        plan, spec, ds = tlpgnn_plan
        from repro.opt import optimize_plan

        optimized, records = optimize_plan(plan, spec, level="search",
                                           dataset=ds, budget=8)
        # no pass may trip the gate on a legal pipeline
        assert all(r.detail != "EQ002" for r in records)
