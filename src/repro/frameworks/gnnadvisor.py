"""GNNAdvisor-like baseline: reorder pre-processing + neighbor groups.

Reproduces the three traits the paper attributes to GNNAdvisor:
pre-processing (vertex reordering + neighbor-partition building, costed
on the plan's device spec by :func:`preprocess_seconds`), atomic merges of
per-group partials (Figure 8's traffic), and the capacity failure on the
four largest graphs (reported as dashes in Table 5).  Only GCN and GIN are
implemented, as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.config import GPUSpec
from ..graph.csr import CSRGraph
from ..graph.datasets import Dataset
from ..graph.reorder import degree_sort
from ..kernels.fusion import streaming_kernel_stats
from ..kernels.neighbor_group import NeighborGroupKernel
from ..lint.access import KernelAccess, lane_stream
from ..lint.effects import LaunchEnvelope, effect_table
from ..mp import build_model, model_features
from ..obs.tracer import span
from ..plan import ComputeStep, ExecutionPlan, KernelOp
from .base import CapacityError, GNNSystem

__all__ = ["GNNAdvisorSystem", "preprocess_seconds"]

#: full-size edge count beyond which GNNAdvisor's int32 partition workspace
#: overflows (the paper's illegal-memory-access graphs start at Collab).
EDGE_CAPACITY = 20_000_000

#: LSD radix passes of the degree sort: 32-bit keys, 8-bit digits
SORT_PASSES = 4


def preprocess_seconds(
    num_vertices: int, num_edges: int, group_size: int, spec: GPUSpec
) -> float:
    """Modeled one-off pre-processing time of GNNAdvisor on ``spec``.

    The degree sort is an LSD radix sort of |V| (degree, id) int32 pairs;
    each pass streams every pair in and out (16 B per vertex).  The
    group-table build reads the sorted degrees (4 B per vertex) and writes
    one (owner, size) int32 pair per group, of which there are at most
    ``|V| + ceil(|E| / group_size)``.  Every pass is one kernel launch.
    """
    groups = num_vertices + -(-num_edges // group_size)
    moved = SORT_PASSES * 16 * num_vertices + 4 * num_vertices + 8 * groups
    return (
        (SORT_PASSES + 1) * spec.kernel_launch_seconds
        + moved / spec.mem_bandwidth_bytes_per_s
    )


class GNNAdvisorSystem(GNNSystem):
    """Reordering + 2D workload (neighbor groups) + atomic merge."""

    name = "GNNAdvisor"
    dispatch_seconds = 60e-6

    def __init__(self, *, group_size: int = 8) -> None:
        self.group_size = group_size
        self.kernel = NeighborGroupKernel(group_size=group_size)

    def supports(self, model: str) -> bool:
        # spec-driven: the neighbor-group kernel merges partial rows with
        # atomicAdd, so only sum reduces without a softmax term lower here
        # (mean and attention keep GNNAdvisor out of sage/gat, as in the
        # paper; any registered sum-reduce UDF is accepted).
        f = model_features(model)
        return f is not None and f.op == "sum" and not f.softmax

    def plan_knobs(self) -> dict:
        return {**super().plan_knobs(), "group_size": self.group_size}

    def check_capacity(self, graph: CSRGraph, dataset: Dataset | None) -> None:
        edges = dataset.spec.num_edges if dataset is not None else graph.num_edges
        if edges > EDGE_CAPACITY:
            raise CapacityError(
                f"{self.name}: neighbor-partition workspace overflow at "
                f"{edges} edges (paper reports illegal CUDA memory access)"
            )

    # ------------------------------------------------------------------
    def _lower(self, model, graph, X, spec, *, dataset, rng):
        with span("gnnadvisor.preprocess", graph=graph.name):
            reorder = degree_sort(graph)

        perm = reorder.perm
        Xp = np.ascontiguousarray(X[np.argsort(perm)])
        workload = build_model(
            model, reorder.graph, Xp, rng=rng
        ).workload()
        # Feature renumbering (permute to the reordered id space) happens
        # once, outside the per-epoch kernel pipeline the tables compare.
        # The compute step undoes the permutation so outputs are
        # comparable across systems.
        ops = [
            KernelOp(
                name=self.kernel.name,
                kind="conv",
                kernel=self.kernel,
                workload=workload,
                balance="neighbor-group",
            ),
            # finalize kernel: combine self term / scale (their 2nd kernel)
            KernelOp(
                name="gnnadvisor_finalize",
                kind="modeled",
                analyze_fn=lambda s, _items=graph.num_vertices * X.shape[1]: (
                    streaming_kernel_stats(
                        "gnnadvisor_finalize",
                        _items,
                        s,
                        read_bytes_per_item=8.0,
                        write_bytes_per_item=4.0,
                        instr_per_item=2.0,
                    )
                ),
                # reads the atomically-merged aggregate back in place and
                # folds in the self term — an exclusive elementwise update
                effects=effect_table(
                    reads=("out", "feat"),
                    writes=("out",),
                    launch=LaunchEnvelope(threads_per_block=256),
                ),
                access=KernelAccess(
                    patterns=(
                        lane_stream("out", row="flat"),
                        lane_stream("feat", row="flat"),
                        lane_stream("out", role="write", row="flat"),
                    ),
                    shapes={
                        "out": (graph.num_vertices, X.shape[1]),
                        "feat": (graph.num_vertices, X.shape[1]),
                    },
                ),
            ),
        ]
        return ExecutionPlan(
            system=self.name,
            model=model,
            graph_name=graph.name,
            pipeline_name=f"gnnadvisor_{model}",
            ops=ops,
            compute=ComputeStep(workload=workload, output_perm=perm),
            preprocess_seconds=preprocess_seconds(
                graph.num_vertices, graph.num_edges, self.group_size, spec
            ),
            dispatch_seconds=self.dispatch_seconds,
        )
