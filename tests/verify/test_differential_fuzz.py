"""Differential fuzzing of the translation validator.

Random legal ``repro.mp`` specs bound to random small graphs, pushed
through random pass pipelines: whenever the symbolic validator says
"equivalent", executing both plans must produce byte-identical outputs.
That is the soundness direction — a certificate never vouches for a
plan that computes something else.  (The converse is not asserted: the
normal form is allowed to be conservative and say "mismatch" for plans
that happen to agree numerically.)
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.graph.csr import from_edge_list
from repro.gpusim.config import V100
from repro.kernels import TLPGNNKernel
from repro.mp import MessageSpec, ReduceSpec, SelfTerm, SymNorm, bind
from repro.opt import (
    DeadIntermediateElimination,
    ElementwiseFusion,
    KernelSearch,
    PassContext,
    PassPipeline,
    knobs_for_kernel,
)
from repro.opt.rewrites import (
    _conv_index,
    _with_kernel,
    launch_grid,
    mapping_candidates,
    search_kernel,
)
from repro.plan import execute_plan
from repro.plan.ir import plan_for_kernel
from repro.verify import certify_plans, decide_equivalence, normalize_plan

# every entry satisfies repro.mp.spec.validate() by construction
_LEGAL_SPECS = [
    (MessageSpec(), ReduceSpec(op="sum")),
    (MessageSpec(), ReduceSpec(op="mean")),
    (MessageSpec(), ReduceSpec(op="max")),
    (MessageSpec(scale=SymNorm()), ReduceSpec(op="sum")),
    (MessageSpec(scale=SymNorm()),
     ReduceSpec(op="sum", self_term=SelfTerm(kind="scaled"))),
    (MessageSpec(), ReduceSpec(op="sum", self_term=SelfTerm(kind="eps",
                                                            eps=0.5))),
    (MessageSpec(feature="dst"), ReduceSpec(op="sum")),
]

_PASSES = [
    DeadIntermediateElimination,
    ElementwiseFusion,
    KernelSearch,
]

#: the kernel search scores the mappings first (at most six beside the
#: incumbent); this budget leaves launch geometries to score after them
_BUDGET = 10


def _workload(spec_idx, num_vertices, num_edges, feat_dim, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, num_edges)
    dst = rng.integers(0, num_vertices, num_edges)
    graph = from_edge_list(src, dst, num_vertices, name="fuzz", dedup=True)
    X = rng.standard_normal((num_vertices, feat_dim)).astype(np.float32)
    message, reduce_ = _LEGAL_SPECS[spec_idx]
    return bind("fuzz", message, reduce_, graph, X).workload()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    spec_idx=st.integers(min_value=0, max_value=len(_LEGAL_SPECS) - 1),
    num_vertices=st.integers(min_value=4, max_value=48),
    num_edges=st.integers(min_value=4, max_value=160),
    feat_dim=st.sampled_from([1, 4, 8]),
    seed=st.integers(min_value=0, max_value=2**16),
    pass_mask=st.integers(min_value=1, max_value=2 ** len(_PASSES) - 1),
)
def test_certified_rewrites_are_byte_identical(
    spec_idx, num_vertices, num_edges, feat_dim, seed, pass_mask
):
    workload = _workload(spec_idx, num_vertices, num_edges, feat_dim, seed)
    kernel = TLPGNNKernel()
    assume(kernel.supports(workload))
    plan = plan_for_kernel(kernel, workload)

    passes = [cls() for i, cls in enumerate(_PASSES) if pass_mask & (1 << i)]
    rewritten, _records = PassPipeline(passes=passes).run(
        plan, V100, budget=_BUDGET, seed=seed
    )

    result = certify_plans(rewritten, plan)
    # the gate let every rewrite through, so certification must succeed
    assert result.certified, result.decision.render()
    # soundness: an equivalence verdict implies byte-identical execution
    before = execute_plan(plan)
    after = execute_plan(rewritten)
    assert before.tobytes() == after.tobytes()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    spec_idx=st.integers(min_value=0, max_value=len(_LEGAL_SPECS) - 1),
    num_vertices=st.integers(min_value=4, max_value=32),
    num_edges=st.integers(min_value=4, max_value=96),
    seed=st.integers(min_value=0, max_value=2**16),
    feature_scale=st.sampled_from([2.0, -1.0, 0.5]),
)
def test_semantic_edits_never_certify(
    spec_idx, num_vertices, num_edges, seed, feature_scale
):
    """The adversarial direction: a plan over visibly different inputs
    must never receive a certificate."""
    from dataclasses import replace

    workload = _workload(spec_idx, num_vertices, num_edges, 4, seed)
    kernel = TLPGNNKernel()
    assume(kernel.supports(workload))
    edited = replace(workload, X=workload.X * feature_scale)
    a = normalize_plan(plan_for_kernel(kernel, workload))
    b = normalize_plan(plan_for_kernel(kernel, edited))
    decision = decide_equivalence(a, b)
    assert decision.verdict == "mismatch"
    assert any(f.rule == "EQ002" for f in decision.findings)


@pytest.mark.parametrize("spec_idx", range(len(_LEGAL_SPECS)))
def test_every_legal_spec_normalizes(spec_idx):
    """No legal spec may be unprovable under its own derived kernel."""
    workload = _workload(spec_idx, 12, 40, 4, seed=1)
    kernel = TLPGNNKernel()
    if not kernel.supports(workload):
        pytest.skip("kernel declines this workload shape")
    nf = normalize_plan(plan_for_kernel(kernel, workload))
    assert nf.provable, [f.render() for f in nf.findings]


@pytest.mark.parametrize("spec_idx", range(len(_LEGAL_SPECS)))
def test_fuzz_budget_reaches_the_launch_grid(spec_idx):
    """At the fuzz's budget the search scores every mapping and then some
    launch geometries, so the fuzz pipelines weigh geometry rewrites."""
    workload = _workload(spec_idx, 12, 40, 4, seed=1)
    kernel = TLPGNNKernel()
    if not kernel.supports(workload):
        pytest.skip("kernel declines this workload shape")
    ctx = PassContext(spec=V100, budget=_BUDGET, seed=1)
    mappings = [
        k for k in mapping_candidates(workload, ctx)
        if knobs_for_kernel(k) != knobs_for_kernel(kernel)
    ]
    _, _, scored = search_kernel(plan_for_kernel(kernel, workload), ctx)
    assert scored > len(mappings)


@pytest.mark.parametrize("spec_idx", range(len(_LEGAL_SPECS)))
def test_every_launch_geometry_certifies(spec_idx):
    """Every launch geometry the search may pick certifies against the
    default one and executes byte-identically.  On the fuzz's graphs the
    cost model keeps the default geometry, so each is checked here."""
    workload = _workload(spec_idx, 12, 40, 4, seed=1)
    kernel = TLPGNNKernel()
    if not kernel.supports(workload):
        pytest.skip("kernel declines this workload shape")
    plan = plan_for_kernel(kernel, workload)
    expected = execute_plan(plan).tobytes()
    for variant in launch_grid(kernel)[1:]:
        knobs = knobs_for_kernel(variant)
        rebound = _with_kernel(plan, _conv_index(plan), variant)
        assert certify_plans(rebound, plan).certified, knobs
        assert execute_plan(rebound).tobytes() == expected, knobs
