"""DGL-like baseline: graph convolution via many fine-grained kernels.

DGL composes graph convolution from generic sparse kernels (cuSPARSE SpMM
plus gather/scatter/elementwise glue), materializing every intermediate in
global memory.  The paper counts 6 / 8 / 10 / 18 kernel launches for
GCN / GIN / GraphSAGE / GAT; this model reproduces those pipelines
kernel-for-kernel, with each launch costed by
:func:`~repro.kernels.fusion.streaming_kernel_stats` and the per-kernel
Python dispatch overhead DGL pays ("Runtime − GPU time" in Table 3).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..gpusim.config import GPUSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.scheduler import ScheduleResult
from ..gpusim.warpcost import warp_cycles
from ..graph.csr import CSRGraph
from ..kernels.base import feature_row_sectors, index_span_sectors
from ..kernels.fusion import streaming_kernel_stats
from ..lint import access
from ..lint.access import KernelAccess
from ..lint.effects import LaunchEnvelope, effect_table
from ..mp import SpmmStage, build_model, dgl_stage_plan, model_features
from ..plan import ComputeStep, ExecutionPlan, KernelOp
from .base import GNNSystem

__all__ = ["DGLSystem"]

#: kernel-launch counts the paper measures for DGL
DGL_KERNEL_COUNTS = {"gcn": 6, "gin": 8, "sage": 10, "gat": 18}

#: launch envelope of the streaming glue kernels (8 warps per block — the
#: ``streaming_kernel_stats`` default)
STREAM_ENVELOPE = LaunchEnvelope(threads_per_block=256)


class DGLSystem(GNNSystem):
    """Multi-kernel SpMM-based pipeline with framework dispatch overhead."""

    name = "DGL"
    dispatch_seconds = 60e-6

    #: cuSPARSE SpMM efficiency boost on near-regular degree distributions
    #: (the effect that lets DGL win on OA in the paper).
    spmm_regular_boost: float = 0.55

    def supports(self, model: str) -> bool:
        # spec-driven: any registered UDF whose terms the SpMM pipeline can
        # express — source-side sends (a dst send has no copy_u lowering
        # here) and sum/mean reduces (cuSPARSE has no max-SpMM path).
        f = model_features(model)
        return f is not None and f.feature == "src" and f.op != "max"

    def plan_knobs(self) -> dict:
        return {
            **super().plan_knobs(),
            "spmm_regular_boost": self.spmm_regular_boost,
        }

    # ------------------------------------------------------------------
    def _spmm(
        self,
        graph: CSRGraph,
        feat_dim: int,
        spec: GPUSpec,
        *,
        weighted: bool,
        coo_atomic: bool = False,
    ) -> tuple[KernelStats, ScheduleResult]:
        """SpMM kernel: cuSPARSE CSR row-parallel, or (for the per-edge
        weighted GAT aggregation) the COO scatter path with atomicAdd —
        the reason DGL's GAT is its slowest model on large graphs."""
        n, E = graph.num_vertices, graph.num_edges
        SF = feature_row_sectors(feat_dim)
        amap = make_amap_dim(graph, feat_dim)
        d = graph.in_degrees.astype(np.float64)
        # cuSPARSE row-splits long rows; effectiveness grows when the degree
        # distribution is regular (low skew), which we model as a work
        # discount toward the mean.
        mean = d.mean() if d.size else 0.0
        skew = float(d.std() / (mean + 1e-9)) if d.size else 0.0
        smoothing = self.spmm_regular_boost / (1.0 + skew)
        eff_d = d * (1.0 - smoothing) + mean * smoothing
        cycles = warp_cycles(
            spec,
            instructions=4.0 + eff_d * (2 + -(-feat_dim // 32)),
            requests=3.0 + eff_d * (1 + weighted + -(-feat_dim // 32)),
            sectors=3.0
            + index_span_sectors(graph.indptr, base=amap.indices_base)
            + eff_d * (1 + weighted + SF)
            + SF,
        )
        stats, sched = streaming_kernel_stats(
            "spmm_coo_atomic" if coo_atomic else "spmm",
            E,
            spec,
            read_bytes_per_item=4.0 * (1 + weighted),
            write_bytes_per_item=4.0 * feat_dim * n / max(E, 1),
            gather_touches=E * SF,
            gather_unique_sectors=n * SF,
            instr_per_item=2.0 + SF,
            segment_imbalance=cycles,
            l2_efficiency=0.25,
        )
        if coo_atomic:
            from ..gpusim.atomics import scatter_collision_rate
            from ..gpusim.memory import cached_dram_sectors

            stats = replace(
                stats,
                atomic_ops=E * feat_dim,
                atomic_collision_rate=scatter_collision_rate(graph.in_degrees),
                atomic_requests=E * (-(-feat_dim // 32)),
                atomic_sectors=cached_dram_sectors(
                    E * SF, n * SF, int(spec.l2_bytes * 0.25)
                ),
                l1_atomic_sectors=E * SF,
            )
        return stats, sched

    def _elementwise(
        self,
        name: str,
        items: int,
        spec: GPUSpec,
        *,
        reads: float = 2,
        writes: float = 1,
        workspace_items: float | None = None,
        gather: tuple[int, int] | None = None,
    ) -> tuple[KernelStats, ScheduleResult]:
        g = gather or (0, 0)
        ws = items if workspace_items is None else workspace_items
        return streaming_kernel_stats(
            name,
            items,
            spec,
            read_bytes_per_item=4.0 * reads,
            write_bytes_per_item=4.0 * writes,
            gather_touches=g[0],
            gather_unique_sectors=g[1],
            instr_per_item=3.0,
            workspace_bytes=int(4 * ws),
            l2_efficiency=0.5,
        )

    # ------------------------------------------------------------------
    def _lower(self, model, graph, X, spec, *, dataset):
        n, E, Fdim = graph.num_vertices, graph.num_edges, X.shape[1]
        nf = n * Fdim
        att_sec = -(-4 * n // 32)
        mp_model = build_model(model, graph, X)
        workload = mp_model.workload()

        ops: list[KernelOp] = []

        # Buffer shapes, accumulated structurally as the stage plan is
        # walked: standard inputs come from the workload, each stage's
        # output extent from its item space ("n" / "e" / "nf") — the
        # declarations the whole-plan shape interpreter (SHAPE001-004)
        # verifies and the liveness analysis sizes the footprint with.
        buf_shapes: dict[str, tuple[int, int]] = {
            "feat": (n, Fdim),
            "indptr": (n + 1, 1),
            "indices": (E, 1),
            "edge_vals": (E, 1),
            "att": (n, 2),
        }

        def shapes_for(rb, wb):
            names = set(rb) | {wb}
            return {b: buf_shapes[b] for b in names if b in buf_shapes}

        def ew(name, items, *, reads=2.0, writes=1.0, gather=None,
               rb=(), wb="tmp:x", gb=()):
            # rb/wb: the named buffers of the effect table — the dataflow
            # the hazard lint walks (rb = read buffers, wb = the one buffer
            # this launch materializes).  gb names the rb subset fetched
            # through per-edge vertex ids rather than streamed — the
            # gathers the access lint classifies as gather-random (ACC002).
            ops.append(
                KernelOp(
                    name=name,
                    kind="modeled",
                    analyze_fn=lambda s, _n=name, _i=items, _r=reads,
                    _w=writes, _g=gather: self._elementwise(
                        _n, _i, s, reads=_r, writes=_w, gather=_g
                    ),
                    effects=effect_table(
                        reads=tuple(rb), writes=(wb,), launch=STREAM_ENVELOPE
                    ),
                    access=KernelAccess(
                        patterns=tuple(
                            [
                                access.gather(b, via="indices")
                                if b in gb
                                else access.lane_stream(b, row="flat")
                                for b in rb
                            ]
                            + [access.lane_stream(wb, role="write", row="flat")]
                        ),
                        shapes=shapes_for(rb, wb),
                    ),
                )
            )

        def spmm(*, weighted, coo_atomic=False, rb=(), wb="tmp:agg"):
            # COO scatter merges every edge contribution with atomicAdd;
            # the cuSPARSE row-parallel path keeps each row's partials in
            # one thread block — exclusive writes, no merge needed
            merge = (
                {"atomics": (wb,), "atomic_ops": E * Fdim}
                if coo_atomic
                else {"writes": (wb,)}
            )
            effects = effect_table(
                reads=tuple(rb), launch=STREAM_ENVELOPE, **merge
            )
            if coo_atomic:
                # rb = (coo pairs, per-edge alphas, dense features): lanes
                # stream edges, gather source rows through the COO pairs,
                # and atomically scatter into destination rows — the
                # ACC002 + ACC004 combination Figure 7 charges DGL's GAT.
                acc = KernelAccess(
                    patterns=(
                        access.lane_stream(rb[0], row="flat"),
                        access.lane_stream(rb[1], row="flat"),
                        access.gather(rb[2], via=rb[0]),
                        access.scatter(wb, via=rb[0], trips=("feat_rounds",)),
                    ),
                    shapes=shapes_for(rb, wb),
                )
            else:
                # rb = (indptr, indices, dense features[, edge scalars]):
                # cuSPARSE's row-parallel path — warp-uniform indices,
                # lane-coalesced feature rows, exclusive row writes; an
                # explicit per-edge scalar streams warp-uniformly alongside
                # the indices.
                pats = [
                    access.broadcast(rb[0]),
                    access.broadcast(rb[1], trips=("degree",)),
                    access.lane_stream(
                        rb[2], row="indirect", via=rb[1],
                        trips=("degree", "feat_rounds"),
                    ),
                ]
                if len(rb) > 3:
                    pats.append(access.broadcast(rb[3], trips=("degree",)))
                pats.append(
                    access.lane_stream(wb, role="write", trips=("feat_rounds",))
                )
                acc = KernelAccess(
                    patterns=tuple(pats), shapes=shapes_for(rb, wb)
                )
            ops.append(
                KernelOp(
                    name="spmm_coo_atomic" if coo_atomic else "spmm",
                    kind="modeled",
                    analyze_fn=lambda s, _w=weighted, _c=coo_atomic: self._spmm(
                        graph, Fdim, s, weighted=_w, coo_atomic=_c
                    ),
                    balance="row-parallel" if not coo_atomic else "coo-scatter",
                    effects=effects,
                    access=acc,
                )
            )

        # The pipeline is no longer hand-written per model: the UDF terms
        # derive the stage list (repro.mp.lower), and this loop only
        # resolves the symbolic sizes and emits each launch.
        items_of = {"n": n, "e": E, "nf": nf}

        def resolve(v):
            if v == "F":
                return Fdim
            if v == "seg":
                return n / max(E, 1)
            return v

        def glue_out_shape(stage):
            # the structural shape rule: a "seg" write lands one value per
            # destination segment, an item-space write one row per item
            # ("nf" launches are (n, F) feature maps), and a multi-column
            # write (coo2csr's edge pairs) widens the row
            if stage.writes == "seg":
                return (n, 1)
            if stage.items == "nf":
                return (n, Fdim)
            rows = items_of[stage.items] if stage.items != "nf" else n
            cols = (
                max(1, int(stage.writes))
                if isinstance(stage.writes, (int, float))
                else 1
            )
            return (int(rows), cols)

        for stage in dgl_stage_plan(mp_model):
            if isinstance(stage, SpmmStage):
                buf_shapes[stage.wb] = (n, Fdim)
                spmm(
                    weighted=stage.weighted,
                    coo_atomic=stage.coo_atomic,
                    rb=stage.rb,
                    wb=stage.wb,
                )
            else:
                buf_shapes[stage.wb] = glue_out_shape(stage)
                ew(
                    stage.name,
                    items_of[stage.items],
                    reads=resolve(stage.reads),
                    writes=resolve(stage.writes),
                    gather=(E, att_sec) if stage.gather else None,
                    rb=stage.rb,
                    wb=stage.wb,
                    gb=stage.gb,
                )

        # cross-check the derived plans against the paper's measured launch
        # counts for the builtin zoo (user-registered models have no pin)
        expected = DGL_KERNEL_COUNTS.get(model)
        if expected is not None:
            assert len(ops) == expected, (
                f"{model}: {len(ops)} kernels != {expected}"
            )
        return ExecutionPlan(
            system=self.name,
            model=model,
            graph_name=graph.name,
            pipeline_name=f"dgl_{model}",
            ops=ops,
            compute=ComputeStep(workload=workload, label=f"dgl_{model}_pipeline"),
            dispatch_seconds=self.dispatch_seconds,
        )


def make_amap_dim(graph: CSRGraph, feat_dim: int):
    """AddressMap helper for pipelines that don't carry a workload object."""
    from ..gpusim.microsim import AddressMap

    return AddressMap.create(graph.num_vertices, graph.num_edges, feat_dim)
