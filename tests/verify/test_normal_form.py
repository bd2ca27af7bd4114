"""The dataflow normal form: schedule-blind, rewrite-invariant, decidable."""

from dataclasses import replace

import numpy as np
import pytest

from repro.frameworks import SYSTEMS
from repro.kernels import EdgeCentricKernel, PullThreadKernel, TLPGNNKernel
from repro.lint import determinism_findings
from repro.lint.effects import LaunchEnvelope, effect_table
from repro.mp import MessageSpec, ReduceSpec, bind
from repro.opt import optimize_plan
from repro.plan import ComputeStep, ExecutionPlan, KernelOp
from repro.plan.ir import plan_for_kernel
from repro.verify import (
    ORDER_EXACT,
    ORDER_FLOAT_SUM,
    decide_equivalence,
    normalize_plan,
)

ENV = LaunchEnvelope(threads_per_block=128)


def _conv_plan(kernel, workload):
    """A one-op plan around a hand-written kernel double."""
    return ExecutionPlan(
        system="X", model="m", graph_name=workload.graph.name,
        pipeline_name="p",
        ops=[KernelOp(name=kernel.name, kind="conv", kernel=kernel,
                      workload=workload)],
        compute=ComputeStep(workload=workload),
    )


class _AtomicMerge:
    """A kernel double that merges ``out`` atomically."""

    name = "atomic-merge"

    def effects(self, workload):
        return effect_table(
            reads=("indptr", "indices", "feat"), atomics=("out",),
            atomic_ops=64, launch=ENV,
        )


def _atomic_merge_plan(workload, reduce):
    w = replace(workload, edge_weights=None, reduce=reduce)
    return _conv_plan(_AtomicMerge(), w)


class TestOrderingClasses:
    def test_exclusive_kernel_is_exact(self, tiny_workload):
        nf = normalize_plan(plan_for_kernel(TLPGNNKernel(), tiny_workload))
        assert nf.provable
        assert nf.terms[0].ordering == ORDER_EXACT

    def test_atomic_float_sum_is_reassociation_class(self, tiny_workload):
        nf = normalize_plan(plan_for_kernel(EdgeCentricKernel(), tiny_workload))
        assert nf.provable
        assert nf.terms[0].ordering == ORDER_FLOAT_SUM

    def test_reference_compute_is_exact(self, cr_cell):
        ds, X, spec, _ = cr_cell
        plan = SYSTEMS["DGL"]().lower("gcn", ds, X, spec)
        assert plan.conv_op is None
        nf = normalize_plan(plan)
        assert nf.terms[0].ordering == ORDER_EXACT

    def test_atomic_scatter_outside_the_conv_op_is_reassociation_class(
        self, cr_cell
    ):
        # DGL's GAT has no conv op: its spmm_coo_atomic launch merges the
        # weighted aggregation into tmp:aggw with float atomics
        ds, X, spec, _ = cr_cell
        plan = SYSTEMS["DGL"]().lower("gat", ds, X, spec)
        assert plan.conv_op is None
        assert normalize_plan(plan).terms[0].ordering == ORDER_FLOAT_SUM
        assert [f.buffer for f in determinism_findings(plan)] == ["tmp:aggw"]

    def test_idempotent_atomic_merge_is_exact(self, tiny_workload):
        # an atomic max merge cannot observe arrival order: any merge
        # order yields the same result, so the class normalizes to exact
        plan = _atomic_merge_plan(tiny_workload, "max")
        assert normalize_plan(plan).terms[0].ordering == ORDER_EXACT

    def test_idempotent_atomic_merge_draws_no_det001(self, tiny_workload):
        assert determinism_findings(_atomic_merge_plan(tiny_workload, "max")) == []
        summed = _atomic_merge_plan(tiny_workload, "sum")
        assert [f.rule for f in determinism_findings(summed)] == ["DET001"]

    def test_effectless_kernel_is_unprovable(self, tiny_workload):
        class _Opaque:
            name = "opaque"

        plan = _conv_plan(_Opaque(), tiny_workload)
        nf = normalize_plan(plan)
        assert not nf.provable
        assert [f.rule for f in nf.findings] == ["EQ001"]


class TestInvariance:
    @pytest.mark.parametrize("system", ["DGL", "FeatGraph", "GNNAdvisor",
                                        "TLPGNN"])
    def test_safe_optimization_preserves_normal_form(self, cr_cell, system):
        """The tentpole invariant: every accepted rewrite is NF-preserving."""
        ds, X, spec, _ = cr_cell
        plan = SYSTEMS[system]().lower("gcn", ds, X, spec)
        optimized, _records = optimize_plan(plan, spec, level="safe",
                                            dataset=ds)
        before, after = normalize_plan(plan), normalize_plan(optimized)
        decision = decide_equivalence(before, after)
        assert decision.equivalent, decision.render()
        # safe rewrites never change the compute step, so even the
        # ordering class is untouched
        assert before.digest == after.digest

    def test_kernel_swap_same_workload_is_equivalent(self, tiny_workload):
        a = normalize_plan(plan_for_kernel(TLPGNNKernel(), tiny_workload))
        b = normalize_plan(plan_for_kernel(PullThreadKernel(), tiny_workload))
        decision = decide_equivalence(a, b)
        assert decision.verdict == "equal"

    def test_atomic_kernel_swap_is_equivalent_unordered(self, tiny_workload):
        a = normalize_plan(plan_for_kernel(TLPGNNKernel(), tiny_workload))
        b = normalize_plan(plan_for_kernel(EdgeCentricKernel(), tiny_workload))
        decision = decide_equivalence(a, b)
        assert decision.verdict == "equivalent-unordered"
        assert [f.rule for f in decision.findings] == ["EQ003"]

    def test_different_features_mismatch_with_minimal_term(self, tiny_workload):
        w2 = replace(tiny_workload, X=tiny_workload.X * 2.0)
        a = normalize_plan(plan_for_kernel(TLPGNNKernel(), tiny_workload))
        b = normalize_plan(plan_for_kernel(TLPGNNKernel(), w2))
        decision = decide_equivalence(a, b)
        assert decision.verdict == "mismatch"
        assert decision.diverging is not None
        assert decision.diverging.startswith("out.feature:")
        assert [f.rule for f in decision.findings] == ["EQ002"]


class TestDigest:
    def test_digest_excludes_the_label(self, tiny_workload):
        plan = plan_for_kernel(TLPGNNKernel(), tiny_workload)
        other = replace(plan, system="SomethingElse")
        a, b = normalize_plan(plan), normalize_plan(other)
        assert a.label != b.label
        assert a.digest == b.digest

    def test_digest_is_deterministic(self, cr_cell):
        ds, X, spec, _ = cr_cell
        lower = SYSTEMS["TLPGNN"]().lower
        assert (normalize_plan(lower("gcn", ds, X, spec)).digest
                == normalize_plan(lower("gcn", ds, X, spec)).digest)

    def test_scale_term_distinguishes_gcn_from_gat(self, cr_cell):
        ds, X, spec, _ = cr_cell
        system = SYSTEMS["TLPGNN"]()
        gcn = normalize_plan(system.lower("gcn", ds, X, spec))
        gat = normalize_plan(system.lower("gat", ds, X, spec))
        assert gcn.terms[0].scale[0] != gat.terms[0].scale[0]
        assert decide_equivalence(gcn, gat).verdict == "mismatch"


class TestSources:
    def test_closure_canonicalizes_graph_buffers(self, cr_cell):
        """CSR traversal and grouped traversal both read 'the graph'."""
        ds, X, spec, _ = cr_cell
        tlpgnn = normalize_plan(SYSTEMS["TLPGNN"]().lower("gcn", ds, X, spec))
        advisor = normalize_plan(
            SYSTEMS["GNNAdvisor"]().lower("gcn", ds, X, spec)
        )
        assert "graph" in tlpgnn.terms[0].sources
        assert "graph" in advisor.terms[0].sources
        for nf in (tlpgnn, advisor):
            for raw in ("indptr", "indices", "group_table"):
                assert raw not in nf.terms[0].sources

    def test_mp_workload_roundtrip(self):
        """A udf-bound spec normalizes identically through two kernels."""
        rng = np.random.default_rng(3)
        src = rng.integers(0, 16, 50)
        dst = rng.integers(0, 16, 50)
        from repro.graph.csr import from_edge_list

        g = from_edge_list(src, dst, 16, name="rt", dedup=True)
        X = rng.standard_normal((16, 4)).astype(np.float32)
        w = bind("rt", MessageSpec(), ReduceSpec(op="sum"), g, X).workload()
        a = normalize_plan(plan_for_kernel(TLPGNNKernel(), w))
        b = normalize_plan(plan_for_kernel(PullThreadKernel(), w))
        assert decide_equivalence(a, b).equivalent
