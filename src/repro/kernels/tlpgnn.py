"""The TLPGNN kernel — the paper's contribution (Sections 4-6).

Two-level parallelism: level 1 maps each vertex to one warp (no atomics,
no intra-warp divergence); level 2 maps feature dimensions to the warp's
lanes (coalesced loads of each neighbour's feature row).  On top of that:

* hybrid dynamic workload assignment (hardware / software / heuristic),
* register caching of the edge-list bounds and the reduction accumulator,
* kernel fusion: attention workloads (GAT) run as a *single* kernel that
  recomputes edge logits in three in-register passes (max, sum-exp,
  aggregate) instead of materializing per-edge data.

``group_size`` < 32 splits each warp into independent lane groups, one
vertex each — the "half warp" configuration of Table 2.
"""

from __future__ import annotations

import numpy as np

from ..balance.hardware import hardware_assignment
from ..balance.hybrid import hybrid_assignment
from ..balance.software import software_assignment
from ..gpusim.config import V100, GPUSpec
from ..gpusim.kernel import KernelStats, LaunchConfig
from ..gpusim.memory import cached_dram_sectors
from ..gpusim.microsim import MicroSim
from ..gpusim.scheduler import ScheduleResult
from ..gpusim.warpcost import warp_cycles
from ..models.convspec import ConvWorkload
from ..lint.effects import LaunchEnvelope
from ..mp.derive import KernelMapping, derive_effects
from .base import (
    ConvKernel,
    feature_row_sectors,
    feature_rounds,
    index_span_sectors,
    make_amap,
)

__all__ = ["TLPGNNKernel", "per_vertex_counters"]


def _round_sectors(feat_dim: int, lanes: int) -> int:
    """Total sectors of one feature row fetched in ``lanes``-wide rounds."""
    full, rem = divmod(feat_dim, lanes)
    s = full * (-(-4 * lanes // 32))
    if rem:
        s += -(-4 * rem // 32)
    return s


def per_vertex_counters(
    degrees: np.ndarray,
    feat_dim: int,
    *,
    edge_scalar_loads: int = 0,
    attention: bool = False,
    register_cache: bool = True,
    group_size: int = 32,
    mean_reduce: bool = False,
) -> dict[str, np.ndarray]:
    """Per-vertex L1 request/sector/instruction counts of the TLPGNN kernel.

    Pure function of the degree sequence — this is what lets the Figure 11
    harness evaluate full-size workloads from a sampled degree sequence
    without materializing hundred-million-edge index arrays.
    """
    d = np.asarray(degrees, dtype=np.int64)
    n = d.size
    L = group_size
    R = feature_rounds(feat_dim, L)
    SR = _round_sectors(feat_dim, L)
    passes = 3 if attention else 1
    e_s = edge_scalar_loads

    req = np.full(n, 2, dtype=np.int64)
    l1 = np.full(n, 2, dtype=np.int64)
    req += d * passes * (1 + e_s)
    l1 += d * (1 + e_s)
    req += d * R
    l1 += d * SR
    if not register_cache:
        req += d + d * R
        l1 += d + d * SR
    store_req = np.full(n, R, dtype=np.int64)
    store_l1 = np.full(n, SR, dtype=np.int64)
    if not register_cache:
        store_req += d * R
        store_l1 += d * SR

    per_edge_instr = 2 * passes + R + e_s
    if attention:
        per_edge_instr += 6
    instr = 6 + R + d * per_edge_instr
    if mean_reduce:
        instr = instr + R
    return {
        "load_requests": req,
        "l1_load_sectors": l1,
        "store_requests": store_req,
        "l1_store_sectors": store_l1,
        "instructions": instr,
    }


class TLPGNNKernel(ConvKernel):
    """Warp-per-vertex, feature-parallel, fused graph-convolution kernel."""

    def __init__(
        self,
        *,
        group_size: int = 32,
        register_cache: bool = True,
        assignment: str = "hybrid",
        warps_per_block: int = 4,
        step: int = 8,
        hint_num_vertices: int | None = None,
        hint_avg_degree: float | None = None,
    ) -> None:
        if group_size not in (8, 16, 32):
            raise ValueError("group_size must be 8, 16 or 32")
        if assignment not in ("hardware", "software", "hybrid", "static"):
            raise ValueError("assignment must be hardware/software/hybrid/static")
        self.group_size = group_size
        self.register_cache = register_cache
        self.assignment = assignment
        self.warps_per_block = warps_per_block
        self.step = step
        self.hint_num_vertices = hint_num_vertices
        self.hint_avg_degree = hint_avg_degree
        self.name = f"tlpgnn[g={group_size},rc={int(register_cache)},{assignment}]"

    # ------------------------------------------------------------------
    def supports(self, workload: ConvWorkload) -> bool:
        return True  # attention fused in-kernel

    def _mapping(self) -> KernelMapping:
        """Level 1: one lane group per vertex, which owns its output row
        outright (no atomics, no inter-warp writes: the paper's central
        claim); the CSR bounds and each neighbour id are warp-uniform
        broadcasts.  Level 2: feature dimensions ride the lanes, so every
        neighbour row and the output row are consecutive-lane streams
        (Figure 5's coalescing claim)."""
        return KernelMapping(
            unit="vertex_warp",
            lanes=self.group_size,
            register_cache=self.register_cache,
            warps_per_block=self.warps_per_block,
        )

    def effects(self, workload: ConvWorkload):
        # The envelope is the widest block any assignment may launch: the
        # software/hybrid task-pool path doubles warps_per_block.
        wpb = self.warps_per_block
        if self.assignment in ("software", "hybrid"):
            wpb *= 2
        return derive_effects(
            self._mapping(), workload,
            envelope=LaunchEnvelope(threads_per_block=wpb * 32),
        )

    # ------------------------------------------------------------------
    # counter model
    # ------------------------------------------------------------------
    def analyze(
        self, workload: ConvWorkload, spec: GPUSpec = V100
    ) -> tuple[KernelStats, ScheduleResult]:
        g = workload.graph
        n, E, F = g.num_vertices, g.num_edges, workload.feat_dim
        d = g.in_degrees.astype(np.int64)
        L = self.group_size
        R = feature_rounds(F, L)
        SF = feature_row_sectors(F)
        SR = _round_sectors(F, L)
        amap = make_amap(workload)
        attention = workload.attention is not None
        passes = 3 if attention else 1
        e_s = workload.edge_scalar_loads

        # ---------- L1TEX-level requests & sectors (per vertex) ----------
        # Index-boundary loads are register-cached; indices/scalar loads are
        # uniform (1 sector); feature rows are gathered once in the
        # aggregate pass.  Re-reads in passes 2..3 of the fused attention
        # kernel hit L1, so they issue requests but move no new sectors.
        counters = per_vertex_counters(
            d,
            F,
            edge_scalar_loads=e_s,
            attention=attention,
            register_cache=self.register_cache,
            group_size=L,
            mean_reduce=workload.reduce == "mean",
        )
        req_v = counters["load_requests"]
        l1_v = counters["l1_load_sectors"]
        store_req_v = counters["store_requests"]
        store_l1_v = counters["l1_store_sectors"]
        instr_v = counters["instructions"]
        # Pass-2/3 re-reads hit L1: they cost issue slots (already in req_v)
        # but no fresh sector service, so they stay out of the cycle cost —
        # yet Nsight's L1TEX sector counter still registers them.
        l1_hot = d * (passes - 1) * (1 + e_s)

        # ---------- DRAM traffic ----------
        idx_span = index_span_sectors(g.indptr, base=amap.indices_base)
        dram_load = int(idx_span.sum()) * passes
        dram_load += -(-4 * (n + 1) // 32)  # indptr array, streamed once
        if attention:
            # per-vertex attention scalars gathered by source id
            dram_load += cached_dram_sectors(
                passes * E, -(-4 * n // 32), spec.l2_bytes
            )
            dram_load += -(-4 * n // 32)  # att_dst, one uniform load/vertex
        elif e_s:
            # edge weights stream with the edge list
            dram_load += int(
                np.sum(index_span_sectors(g.indptr, base=amap.edge_val_base))
            )
        # neighbour feature rows through L2
        dram_load += cached_dram_sectors(E * SR, n * SF, spec.l2_bytes)
        dram_store = n * SF
        if not self.register_cache:
            # accumulator reads stay L1-hot (same row per warp iteration);
            # the write-through stores stream to L2 and spill to DRAM on
            # eviction
            dram_store += cached_dram_sectors(E * SR, n * SF, spec.l2_bytes)

        # ---------- per-scheduled-unit cycles ----------
        vertex_cycles = warp_cycles(
            spec,
            instructions=instr_v.astype(np.float64),
            requests=(req_v + store_req_v).astype(np.float64),
            sectors=(l1_v + store_l1_v).astype(np.float64),
        )
        groups_per_warp = spec.threads_per_warp // L
        if groups_per_warp > 1:
            # lane groups within a warp serialize on divergence; one warp
            # carries `groups_per_warp` vertices.
            pad = (-n) % groups_per_warp
            padded = np.pad(vertex_cycles, (0, pad))
            unit_cycles = padded.reshape(-1, groups_per_warp).sum(axis=1)
        else:
            unit_cycles = vertex_cycles

        schedule, launch = self._schedule(unit_cycles, g, spec)

        idle = (L - (F % L)) % L
        stats = KernelStats(
            name=self.name,
            launch=launch,
            load_sectors=int(dram_load),
            store_sectors=int(dram_store),
            l1_load_sectors=int(l1_v.sum() + l1_hot.sum()),
            l1_store_sectors=int(store_l1_v.sum()),
            load_requests=int(req_v.sum()),
            store_requests=int(store_req_v.sum()),
            instructions=int(instr_v.sum()),
            warp_cycles=unit_cycles,
            divergent_lanes=int(idle) * int(d.sum() + n),
            workspace_bytes=0,
        )
        return stats, schedule

    def _schedule(
        self, unit_cycles: np.ndarray, g, spec: GPUSpec
    ) -> tuple[ScheduleResult, LaunchConfig]:
        if self.assignment == "hardware":
            sched, launch = hardware_assignment(
                unit_cycles, spec, warps_per_block=self.warps_per_block
            )
        elif self.assignment == "static":
            from ..gpusim.scheduler import static_schedule

            launch = LaunchConfig(
                num_blocks=max(1, -(-unit_cycles.size // self.warps_per_block)),
                threads_per_block=self.warps_per_block * spec.threads_per_warp,
            )
            sched = static_schedule(unit_cycles, launch, spec)
        elif self.assignment == "software":
            sched, launch = software_assignment(
                unit_cycles, spec, step=self.step,
                warps_per_block=self.warps_per_block * 2,
            )
        else:
            sched, launch, _policy = hybrid_assignment(
                unit_cycles,
                spec,
                num_vertices=self.hint_num_vertices or g.num_vertices,
                avg_degree=(
                    self.hint_avg_degree
                    if self.hint_avg_degree is not None
                    else g.avg_degree
                ),
                warps_per_block=self.warps_per_block,
                step=self.step,
            )
        return sched, launch

    # ------------------------------------------------------------------
    # micro-simulator replay (small graphs)
    # ------------------------------------------------------------------
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        g = workload.graph
        n, F = g.num_vertices, workload.feat_dim
        L = self.group_size
        amap = make_amap(workload)
        attention = workload.attention is not None
        e_s = workload.edge_scalar_loads
        rounds = [
            (r * L, min(L, F - r * L)) for r in range(feature_rounds(F, L))
        ]
        passes = 3 if attention else 1
        for v in range(n):
            start, end = int(g.indptr[v]), int(g.indptr[v + 1])
            sim.warp_load([amap.indptr_addr(v)])
            sim.warp_load([amap.indptr_addr(v + 1)])
            sim.issue(2)
            for p in range(passes):
                last_pass = p == passes - 1
                for i in range(start, end):
                    sim.warp_load([amap.indices_addr(i)])
                    if e_s:
                        # attention gathers att_src[src]; weighted workloads
                        # stream w[i] — both one uniform scalar.
                        addr = (
                            amap.edge_val_addr(int(g.indices[i]))
                            if attention
                            else amap.edge_val_addr(i)
                        )
                        sim.warp_load([addr])
                    sim.issue(2)
                    if last_pass:
                        if not self.register_cache:
                            sim.warp_load([amap.indptr_addr(v + 1)])
                        src = int(g.indices[i])
                        for off, lanes in rounds:
                            addrs = amap.feat_addr(src, off + np.arange(lanes))
                            sim.warp_load(addrs)
                            sim.issue(1)
                            if not self.register_cache:
                                addrs_o = amap.out_addr(v, off + np.arange(lanes))
                                sim.warp_load(addrs_o)
                                sim.warp_store(addrs_o)
            for off, lanes in rounds:
                sim.warp_store(amap.out_addr(v, off + np.arange(lanes)))
