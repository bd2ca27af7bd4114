"""Kernel fusion building blocks: ApplyEdge / ApplyVertex pipelines.

Section 6 of the paper: most GNN convolutions decompose into *ApplyEdge*
(compute a message per edge) and *ApplyVertex* (reduce messages per
vertex).  Unfused pipelines materialize every intermediate in global
memory; TLPGNN fuses everything into one kernel.  This module provides

* :func:`streaming_kernel_stats` — the generic cost of one elementwise /
  gather / segment kernel over edge- or vertex-parallel data (also the
  workhorse of the DGL baseline model),
* :func:`three_kernel_gat_stats` — the counter model of the paper's
  hand-written 3-kernel GAT (ApplyEdge logits → edge softmax → weighted
  aggregate), the middle column of Table 3.

The 1-kernel column of Table 3 is :class:`~repro.kernels.tlpgnn.TLPGNNKernel`
with an attention workload.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.config import V100, GPUSpec
from ..gpusim.kernel import KernelStats, LaunchConfig, PipelineStats
from ..gpusim.memory import cached_dram_sectors
from ..gpusim.scheduler import ScheduleResult, hardware_schedule, static_schedule
from ..gpusim.warpcost import warp_cycles
from ..lint.access import KernelAccess
from ..models.convspec import ConvWorkload
from ..mp.derive import softmax_stage_access
from .base import feature_row_sectors, index_span_sectors, make_amap

__all__ = [
    "streaming_kernel_stats",
    "three_kernel_gat_access",
    "three_kernel_gat_stats",
]


def streaming_kernel_stats(
    name: str,
    num_items: int,
    spec: GPUSpec = V100,
    *,
    read_bytes_per_item: float = 8.0,
    write_bytes_per_item: float = 4.0,
    gather_touches: int = 0,
    gather_unique_sectors: int = 0,
    instr_per_item: float = 3.0,
    workspace_bytes: int = 0,
    warps_per_block: int = 8,
    segment_imbalance: np.ndarray | None = None,
    schedule_policy: str = "hardware",
    l2_efficiency: float = 1.0,
) -> tuple[KernelStats, ScheduleResult]:
    """Cost one streaming (coalesced elementwise / segment / SpMM-ish) kernel.

    ``num_items`` items are processed one-per-thread with coalesced
    sequential reads/writes; ``gather_*`` adds an irregular gather component
    (for SpMM-style kernels).  ``segment_imbalance`` optionally replaces the
    uniform per-warp cost with a per-unit cost vector (e.g. per-row work of
    an SpMM), which is what makes DGL's SpMM sensitive to degree skew.
    """
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    items = max(num_items, 1)
    W = -(-items // spec.threads_per_warp)
    total_read = read_bytes_per_item * num_items
    total_write = write_bytes_per_item * num_items
    l1_load = int(-(-total_read // spec.sector_bytes)) + gather_touches
    l1_store = int(-(-total_write // spec.sector_bytes))
    load_req = max(1, int(-(-l1_load // 4)))
    store_req = max(1, int(-(-l1_store // 4)))
    dram_load = int(-(-total_read // spec.sector_bytes))
    if gather_touches:
        # Unfused pipelines co-stream materialized edge tensors through L2,
        # polluting the cache the gathers rely on; l2_efficiency < 1 models
        # that loss (the fused kernel keeps the full cache).
        dram_load += cached_dram_sectors(
            gather_touches,
            gather_unique_sectors,
            int(spec.l2_bytes * l2_efficiency),
        )
    dram_store = l1_store

    if segment_imbalance is not None:
        cycles = np.asarray(segment_imbalance, dtype=np.float64)
    else:
        per_warp_sectors = (l1_load + l1_store) / W
        per_warp_req = (load_req + store_req) / W
        cycles = warp_cycles(
            spec,
            instructions=np.full(W, instr_per_item * spec.threads_per_warp / 1.0),
            requests=np.full(W, per_warp_req),
            sectors=np.full(W, per_warp_sectors),
        )
    launch = LaunchConfig(
        num_blocks=max(1, -(-max(cycles.size, 1) // warps_per_block)),
        threads_per_block=warps_per_block * spec.threads_per_warp,
    )
    schedule_fn = (
        static_schedule if schedule_policy == "static" else hardware_schedule
    )
    schedule = schedule_fn(cycles, launch, spec)
    stats = KernelStats(
        name=name,
        launch=launch,
        load_sectors=dram_load,
        store_sectors=dram_store,
        l1_load_sectors=l1_load,
        l1_store_sectors=l1_store,
        load_requests=load_req,
        store_requests=store_req,
        instructions=int(instr_per_item * items),
        warp_cycles=cycles,
        workspace_bytes=workspace_bytes,
    )
    return stats, schedule


# ----------------------------------------------------------------------
# the 3-kernel GAT pipeline of Table 3
# ----------------------------------------------------------------------
def three_kernel_gat_access(
    workload: ConvWorkload,
    *,
    logits: str = "tmp:logits",
    alpha: str = "tmp:alpha",
) -> dict[str, KernelAccess]:
    """Access tables of the unfused GAT stages, keyed by stage.

    ApplyEdge is the pipeline's uncoalesced step: every edge gathers the
    two per-vertex attention scalars through ``indices`` (ACC002).  The
    softmax and the streaming sides stay lane-coalesced; the aggregate
    re-reads its global accumulator because the unfused pipelines run
    without register caching.  ``alpha`` names the buffer the softmax
    materializes (FeatGraph keeps a transient, the unfused TLPGNN path
    writes the downstream kernel's ``edge_vals``).

    The staging itself is the UDF normalization term made explicit —
    the tables are derived in :func:`repro.mp.derive.softmax_stage_access`
    (single source of truth shared with the framework lowerings); this
    wrapper keeps the historical kernel-layer entry point.
    """
    return softmax_stage_access(workload, logits=logits, alpha=alpha)


def three_kernel_gat_stats(
    workload: ConvWorkload,
    spec: GPUSpec = V100,
    *,
    schedule_policy: str = "hardware",
    register_cache: bool = True,
    l2_efficiency: float = 0.35,
) -> tuple[PipelineStats, list[tuple[KernelStats, ScheduleResult]]]:
    """Counter model of the three-kernel GAT (no numeric execution).

    Kernel 1 (ApplyEdge): logits[e] = LeakyReLU(att_src[src] + att_dst[dst])
    — written to global memory.  Kernel 2 (ApplyVertex): per-destination
    softmax over the logits — rewritten in place.  Kernel 3 (ApplyVertex):
    weighted feature aggregation reading the per-edge alphas.
    """
    if workload.attention is None:
        raise ValueError("the three-kernel GAT needs an attention workload")
    g = workload.graph
    n, E, Fdim = g.num_vertices, g.num_edges, workload.feat_dim
    SF = feature_row_sectors(Fdim)
    amap = make_amap(workload)
    att_sectors = -(-4 * n // 32)

    pipeline = PipelineStats(name="gat_three_kernel")
    parts: list[tuple[KernelStats, ScheduleResult]] = []

    # K1: per edge, gather two vertex scalars, write one float
    k1 = streaming_kernel_stats(
        "gat_apply_edge",
        E,
        spec,
        read_bytes_per_item=8.0,  # src & dst ids
        write_bytes_per_item=4.0,
        gather_touches=2 * E,
        gather_unique_sectors=2 * att_sectors,
        instr_per_item=4.0,
        workspace_bytes=4 * E,
    )
    # K2: segment softmax — read logits twice (max pass + exp/normalize),
    # write alphas; per-vertex segments make the work skewed.
    seg_cycles = warp_cycles(
        spec,
        instructions=4.0 + 3.0 * g.in_degrees.astype(np.float64),
        requests=2.0 + 2.0 * g.in_degrees.astype(np.float64) / 8.0,
        sectors=2.0 + 2.0 * index_span_sectors(g.indptr, base=amap.edge_val_base),
    )
    k2 = streaming_kernel_stats(
        "gat_edge_softmax",
        E,
        spec,
        read_bytes_per_item=8.0,
        write_bytes_per_item=4.0,
        instr_per_item=6.0,
        workspace_bytes=4 * E,
        segment_imbalance=seg_cycles,
        schedule_policy=schedule_policy,
    )
    # K3: weighted aggregation — stream alphas + indices, gather rows,
    # write output rows.
    R = -(-Fdim // 32)
    acc = 0 if register_cache else 2  # accumulator kept in global memory
    agg_cycles = warp_cycles(
        spec,
        instructions=6.0 + g.in_degrees.astype(np.float64) * (2 + R),
        requests=2.0 + g.in_degrees.astype(np.float64) * (2 + R + acc * R),
        sectors=2.0 + g.in_degrees.astype(np.float64) * (2 + SF + acc * SF) + SF,
    )
    k3 = streaming_kernel_stats(
        "gat_aggregate",
        E,
        spec,
        read_bytes_per_item=8.0,
        write_bytes_per_item=4.0 * Fdim * n / max(E, 1),
        gather_touches=E * SF * (1 + acc),
        gather_unique_sectors=n * SF,
        instr_per_item=3.0 + SF,
        segment_imbalance=agg_cycles,
        schedule_policy=schedule_policy,
        l2_efficiency=l2_efficiency,
    )
    for stats, sched in (k1, k2, k3):
        pipeline.add(stats)
        parts.append((stats, sched))
    return pipeline, parts
