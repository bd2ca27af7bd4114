"""A kernel is a mapping, not new arithmetic.

Every plan outputs the shared reference aggregation of its compute step,
so a kernel's plan matches the reference exactly by construction; these
tests pin that invariant per kernel and model, pin the refusal of
workloads a kernel cannot execute, and replay random graphs (empty ones
included) through the micro-simulator against the counter model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frameworks import FeatGraphSystem, TLPGNNEngine
from repro.gpusim import MicroSim
from repro.graph import erdos_renyi, power_law
from repro.kernels import (
    EdgeCentricKernel,
    NeighborGroupKernel,
    PullThreadKernel,
    PushKernel,
    TLPGNNKernel,
    three_kernel_gat_stats,
)
from repro.models import MODEL_NAMES
from repro.models.convspec import ConvWorkload
from repro.plan import plan_for_kernel

from ..conftest import assert_plan_is_reference, make_workload

ALL_KERNELS = [
    TLPGNNKernel(),
    TLPGNNKernel(group_size=16, assignment="hardware"),
    TLPGNNKernel(group_size=8, assignment="software"),
    TLPGNNKernel(register_cache=False, assignment="hardware"),
    TLPGNNKernel(assignment="static"),
    PullThreadKernel(),
    PushKernel(),
    EdgeCentricKernel(),
    EdgeCentricKernel(edges_per_warp=7),
    NeighborGroupKernel(group_size=3),
    NeighborGroupKernel(group_size=16),
]


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_kernel_matches_reference(small_random, kernel, model):
    assert_plan_is_reference(kernel, make_workload(small_random, model, 16))


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_kernel_on_skewed_graph(skewed_graph, kernel):
    assert_plan_is_reference(kernel, make_workload(skewed_graph, "gcn", 8))


def test_three_kernel_gat_matches_fused(small_random):
    """FeatGraph's three-kernel GAT and TLPGNN's fused kernel compute the
    same output bytes; only the launches differ."""
    X = np.random.default_rng(0).standard_normal((60, 16), dtype=np.float32)
    unfused = FeatGraphSystem().run("gat", small_random, X)
    fused = TLPGNNEngine().run("gat", small_random, X)
    assert np.array_equal(unfused.output, fused.output)
    assert unfused.plan.num_kernels == 3 and fused.plan.num_kernels == 1
    pipe, parts = three_kernel_gat_stats(make_workload(small_random, "gat", 16))
    assert pipe.num_kernels == len(parts) == 3


def test_execute_end_to_end(small_random):
    wl = make_workload(small_random, "gcn", 16)
    res = TLPGNNKernel().execute(wl)
    assert res.timing.gpu_seconds > 0
    assert res.stats.load_requests > 0


@pytest.mark.parametrize("kernel,model", [
    (PushKernel(), "gat"),
    (EdgeCentricKernel(), "max"),
], ids=["push-gat", "edge_centric-max"])
def test_unsupported_workload_is_refused(kernel, model):
    """Costing a workload the kernel cannot execute would model a
    computation it does not perform (a GAT with no softmax, an
    atomicAdd "max"), so both entry points refuse it by name."""
    g = erdos_renyi(50, 300, seed=0)
    if model == "max":
        X = np.random.default_rng(0).standard_normal((50, 16), dtype=np.float32)
        wl = ConvWorkload(graph=g, X=X, reduce="max")
    else:
        wl = make_workload(g, model, 16)
    assert not kernel.supports(wl)
    with pytest.raises(ValueError, match=kernel.name):
        kernel.execute(wl)
    with pytest.raises(ValueError, match=kernel.name):
        plan_for_kernel(kernel, wl)


def test_unsupported_attention_raises_or_skips(small_random):
    wl = make_workload(small_random, "gat", 8)
    assert not PushKernel().supports(wl)
    assert not EdgeCentricKernel().supports(wl)
    assert not NeighborGroupKernel().supports(wl)
    assert TLPGNNKernel().supports(wl)


@given(
    n=st.integers(2, 40),
    m=st.integers(0, 200),
    feat=st.sampled_from([8, 16, 32]),
    model=st.sampled_from(list(MODEL_NAMES)),
    seed=st.integers(0, 20),
)
@settings(max_examples=40, deadline=None)
def test_tlpgnn_matches_reference_property(n, m, feat, model, seed):
    """On random graphs, edgeless ones included, TLPGNN's plan outputs the
    reference and its counter model issues exactly the requests of the
    micro-sim replay."""
    g = erdos_renyi(n, m, seed=seed)
    wl = make_workload(g, model, feat, seed=seed)
    kernel = TLPGNNKernel()
    assert_plan_is_reference(kernel, wl)
    sim = MicroSim()
    kernel.trace(wl, sim)
    stats, _ = kernel.analyze(wl)
    assert sim.load_requests == stats.load_requests
    assert sim.store_requests == stats.store_requests


@given(n=st.integers(2, 30), m=st.integers(1, 120), seed=st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_scatter_kernels_match_property(n, m, seed):
    """On random skewed graphs, both scatter kernels' plans output the
    reference and their counter models charge exactly the atomics of the
    micro-sim replay."""
    g = power_law(n, m, seed=seed)
    wl = make_workload(g, "gin", 8, seed=seed)
    for kernel in (PushKernel(), EdgeCentricKernel()):
        assert_plan_is_reference(kernel, wl)
        sim = MicroSim()
        kernel.trace(wl, sim)
        stats, _ = kernel.analyze(wl)
        assert sim.atomic_ops == stats.atomic_ops
        assert sim.atomic_requests == stats.atomic_requests
