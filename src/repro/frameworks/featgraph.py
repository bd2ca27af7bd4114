"""FeatGraph-like baseline: tensor-compiler template kernels.

FeatGraph emits TVM-generated kernels: fewer launches than DGL and decent
memory behaviour, but the Tensor Expression API fixes the vertex↔thread
mapping at compile time — no dynamic balancing — which the paper shows as
markedly lower achieved occupancy (Figure 9, 41.2% vs TLPGNN's 68.2%).

We model it as a warp-per-vertex gather kernel with a *static* mapping
(large blocks, no task pool, no register caching of the accumulator) plus a
finalize kernel; GAT lowers to the 3-kernel pipeline of Table 3.
"""

from __future__ import annotations

from ..kernels.fusion import streaming_kernel_stats, three_kernel_gat_stats
from ..kernels.tlpgnn import TLPGNNKernel
from ..lint.access import KernelAccess, lane_stream
from ..lint.effects import LaunchEnvelope, effect_table
from ..mp import (
    build_model,
    model_features,
    softmax_stage_access,
    softmax_stages,
)
from ..obs.tracer import span
from ..plan import ComputeStep, ExecutionPlan, KernelOp
from .base import GNNSystem

__all__ = ["FeatGraphSystem"]


class FeatGraphSystem(GNNSystem):
    """TVM-template kernels: static mapping, moderate kernel counts."""

    name = "FeatGraph"

    def __init__(self, *, warps_per_block: int = 16) -> None:
        # Large static blocks: whole blocks retire on their slowest warp,
        # which is where the occupancy gap against TLPGNN comes from.
        self.warps_per_block = warps_per_block
        self.kernel = TLPGNNKernel(
            assignment="static",
            warps_per_block=warps_per_block,
            register_cache=False,
        )
        self.kernel.name = "featgraph_gather"

    def supports(self, model: str) -> bool:
        # spec-driven: the static gather template runs any registered UDF
        # (softmax terms expand to the three-kernel pipeline below)
        return model_features(model) is not None

    def plan_knobs(self) -> dict:
        return {**super().plan_knobs(), "warps_per_block": self.warps_per_block}

    # ------------------------------------------------------------------
    def _lower(self, model, graph, X, spec, *, dataset):
        mp_model = build_model(model, graph, X)
        workload = mp_model.workload()
        if mp_model.has_softmax:
            # The softmax normalization term expands to the unfused
            # three-stage pipeline; stage dataflow and access tables are
            # derived from the term (repro.mp), the TVM-style static cost
            # model stays here.  The three stats belong to one lowering:
            # compute them once per analyzed spec and hand each op its
            # slice.
            memo: dict[int, list] = {}
            gat_access = softmax_stage_access(workload)
            stage_names = {
                "apply_edge": "gat_apply_edge",
                "softmax": "gat_edge_softmax",
                "aggregate": "gat_aggregate",
            }

            def part_of(index, name, *, rb, wb, access):
                def analyze(s):
                    key = id(s)
                    if key not in memo:
                        with span("featgraph.three_kernel_gat"):
                            _pipe, parts = three_kernel_gat_stats(
                                workload,
                                s,
                                schedule_policy="static",
                                register_cache=False,
                                l2_efficiency=0.2,
                            )
                        memo[key] = parts
                    return memo[key][index]

                return KernelOp(
                    name=name, kind="modeled",
                    analyze_fn=analyze, balance="static",
                    effects=effect_table(
                        reads=rb,
                        writes=(wb,),
                        launch=LaunchEnvelope(
                            threads_per_block=self.warps_per_block * 32
                        ),
                    ),
                    access=access,
                )

            ops = [
                part_of(
                    i,
                    stage_names[stage.key],
                    rb=stage.reads,
                    wb=stage.write,
                    access=gat_access[stage.key],
                )
                for i, stage in enumerate(softmax_stages())
            ]
            return ExecutionPlan(
                system=self.name,
                model=model,
                graph_name=graph.name,
                pipeline_name=f"featgraph_{model}",
                ops=ops,
                compute=ComputeStep(workload=workload, label="gat_three_kernel"),
                dispatch_seconds=self.dispatch_seconds,
            )
        ops = [
            KernelOp(
                name=self.kernel.name,
                kind="conv",
                kernel=self.kernel,
                workload=workload,
                balance="static",
            ),
            KernelOp(
                name="featgraph_finalize",
                kind="modeled",
                analyze_fn=lambda s, _items=graph.num_vertices * X.shape[1]: (
                    streaming_kernel_stats(
                        "featgraph_finalize",
                        _items,
                        s,
                        read_bytes_per_item=8.0,
                        write_bytes_per_item=4.0,
                        instr_per_item=2.0,
                    )
                ),
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
            pipeline_name=f"featgraph_{model}",
            ops=ops,
            compute=ComputeStep(workload=workload),
            dispatch_seconds=self.dispatch_seconds,
        )
