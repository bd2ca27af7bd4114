"""Static sector classes must agree with the measured memory models.

``cross_validate_access`` triangulates every ConvKernel's declared access
table against its two measured models: a statically *coalesced* kernel
must measure at or under ``COALESCED_SPR_MAX`` sectors/request in both
the vectorized counter model and the exact micro-simulator, and a
statically *uncoalesced* one must show excess sectors or masked lanes.
F=32 keeps the feature sweep aligned to full warps so the comparison is
about access shape, not tail effects.
"""

import numpy as np
import pytest

from repro.graph.csr import from_edge_list
from repro.graph.generators import erdos_renyi, power_law
from repro.kernels.edge_centric import EdgeCentricKernel
from repro.kernels.edge_parallel_warp import EdgeParallelWarpKernel
from repro.kernels.neighbor_group import NeighborGroupKernel
from repro.kernels.pull_cta import PullCTAKernel
from repro.kernels.pull_thread import PullThreadKernel
from repro.kernels.push import PushKernel
from repro.kernels.tlpgnn import TLPGNNKernel
from repro.lint.access import (
    access_findings,
    cross_validate_access,
    op_sector_class,
)
from repro.models import build_conv
from repro.models.convspec import ConvWorkload
from repro.plan import plan_for_kernel

KERNELS = [
    TLPGNNKernel(),
    TLPGNNKernel(assignment="hardware"),
    PushKernel(),
    EdgeCentricKernel(),
    NeighborGroupKernel(group_size=3),
    NeighborGroupKernel(group_size=8),
    PullThreadKernel(),
    PullCTAKernel(),
    EdgeParallelWarpKernel(),
]

GRAPHS = {
    "er": erdos_renyi(30, 90, seed=5),
    "power_law": power_law(24, 72, seed=2),
}


def _workloads(graph):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((graph.num_vertices, 32)).astype(np.float32)
    return {
        "plain": ConvWorkload(graph=graph, X=X, reduce="sum"),
        "weighted": ConvWorkload(
            graph=graph,
            X=X,
            edge_weights=rng.random(graph.num_edges).astype(np.float32),
            reduce="sum",
        ),
        "gat": build_conv("gat", graph, X, rng=rng),
    }


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("which", ["plain", "weighted", "gat"])
def test_static_class_matches_measured_models(kernel, gname, which):
    workload = _workloads(GRAPHS[gname])[which]
    if not kernel.supports(workload):
        pytest.skip(f"{kernel.name} does not support this workload")
    assert cross_validate_access(kernel, workload) == []


# the Figure 7 story, statically: warp-per-vertex designs issue coalesced
# feature traffic, thread-per-vertex pulls and per-lane-edge gathers do not
COALESCED = {"tlpgnn", "push", "edge_centric", "neighbor_group", "pull_cta"}
GATHERING = {"pull_thread", "edge_parallel_warp"}


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_declared_sector_class_per_kernel(kernel):
    workload = _workloads(GRAPHS["power_law"])["plain"]
    cls = op_sector_class(kernel.access_patterns(workload))
    base = kernel.name.split("[")[0]
    if base in GATHERING:
        assert cls == "gather", kernel.name
    else:
        assert base in COALESCED, f"unclassified kernel {kernel.name}"
        assert cls in ("broadcast", "coalesced"), (kernel.name, cls)


def test_tlpgnn_is_statically_clean():
    """The paper's design produces zero access findings at warp-wide F."""
    for which in ("plain", "weighted", "gat"):
        workload = _workloads(GRAPHS["power_law"])[which]
        plan = plan_for_kernel(TLPGNNKernel(), workload)
        assert access_findings(plan) == [], which


@pytest.mark.parametrize("kernel,rules", [
    (PushKernel(), {"ACC004"}),
    (EdgeCentricKernel(), {"ACC004"}),
    (PullThreadKernel(), {"ACC002", "ACC003", "DIV001"}),
    (EdgeParallelWarpKernel(), {"ACC002"}),
], ids=lambda v: v.name if hasattr(v, "name") else "")
def test_scatter_and_pull_designs_are_flagged(kernel, rules):
    workload = _workloads(GRAPHS["power_law"])["plain"]
    plan = plan_for_kernel(kernel, workload)
    found = {f.rule for f in access_findings(plan)}
    assert rules <= found, (kernel.name, found)
    assert "OOB001" not in found and "ACC001" not in found, found


class _PullThreadClaimingTLPGNN(PullThreadKernel):
    """Thread-per-vertex pulls that declare TLPGNN's coalesced table."""

    def access_patterns(self, workload):
        return TLPGNNKernel().access_patterns(workload)


class _TLPGNNClaimingPullThread(TLPGNNKernel):
    """Warp-per-vertex rows that declare pull-thread's gather table."""

    def access_patterns(self, workload):
        return PullThreadKernel().access_patterns(workload)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_coalesced_claim_of_a_gather_kernel_is_flagged(gname):
    workload = _workloads(GRAPHS[gname])["plain"]
    problems = cross_validate_access(_PullThreadClaimingTLPGNN(), workload)
    for source in ("the counter model", "the micro-sim"):
        assert any(f"statically coalesced but {source}" in p for p in problems)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_gather_claim_of_a_coalesced_kernel_is_flagged(gname):
    workload = _workloads(GRAPHS[gname])["plain"]
    problems = cross_validate_access(_TLPGNNClaimingPullThread(), workload)
    assert any("statically uncoalesced but the micro-sim" in p for p in problems)
    assert any("(DIV001)" in p for p in problems)


def _ring(n):
    return from_edge_list(np.arange(n), (np.arange(n) - 1) % n, n, name="ring")


@pytest.mark.parametrize("graph,feat", [
    # four lanes, all gathering vertex 0's row: at most four sectors per
    # request and no divergence, whatever the kernel's access shape
    (from_edge_list([0, 0, 0, 0], [0, 1, 2, 3], 4, name="fan_in"), 4),
    (_ring(4), 4),
    (_ring(4), 8),
    (_ring(4), 32),
    # a full warp of uniform in-degree: a per-lane degree loop cannot
    # mask lanes
    (_ring(32), 4),
], ids=["fan_in4-F4", "ring4-F4", "ring4-F8", "ring4-F32", "ring32-F4"])
def test_gather_kernel_is_not_held_to_unobservable_effects(graph, feat):
    X = np.random.default_rng(0).standard_normal((graph.num_vertices, feat))
    workload = ConvWorkload(graph=graph, X=X.astype(np.float32), reduce="sum")
    assert cross_validate_access(PullThreadKernel(), workload) == []
