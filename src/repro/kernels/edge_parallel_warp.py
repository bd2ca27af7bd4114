"""Edge-parallel looping scheme inside the warp — Figure 5(a) of the paper.

The second-level design alternative TLPGNN rejects: within a warp-per-vertex
mapping, lanes process *different edges at the same feature dimension*
("feature-then-edge" order).  All 32 lanes then target the same output
element, so each step ends in an intra-warp reduction (modeled as a shuffle
tree — the atomic-free best case; a naive version would use atomics), and
the feature loads are scattered across 32 different rows (uncoalesced).

TLPGNN's feature parallelism (Figure 5(b)) wins on both counts; this kernel
exists to reproduce that design comparison quantitatively.
"""

from __future__ import annotations

import numpy as np

from ..balance.hardware import hardware_assignment
from ..gpusim.config import V100, GPUSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.memory import cached_dram_sectors, scattered_rows_sectors
from ..gpusim.microsim import MicroSim
from ..gpusim.scheduler import ScheduleResult
from ..gpusim.warpcost import warp_cycles
from ..models.convspec import ConvWorkload
from ..mp.derive import KernelMapping
from .base import ConvKernel, feature_row_sectors, index_span_sectors, make_amap

__all__ = ["EdgeParallelWarpKernel"]

#: cycles of a 32-lane shuffle reduction tree (5 rounds)
SHUFFLE_REDUCE_CYCLES = 10.0


class EdgeParallelWarpKernel(ConvKernel):
    """Warp-per-vertex with lanes over edges (feature-then-edge order)."""

    name = "edge_parallel_warp"

    def __init__(self, *, warps_per_block: int = 4) -> None:
        self.warps_per_block = warps_per_block

    def supports(self, workload: ConvWorkload) -> bool:
        return workload.attention is None and workload.reduce != "max"

    def _mapping(self) -> KernelMapping:
        """Still warp-per-vertex at level 1: the shuffle tree keeps the
        cross-lane reduction in registers, so the output write stays
        exclusive (the naive atomic variant is what TLPGNN rejects).  In
        feature-then-edge order the edge-id tile is a consecutive-lane
        stream, but every feature load puts 32 *different* source rows on
        the lanes (ACC002, Figure 5(a)'s uncoalesced case), and tail tiles
        mask lanes on every low-degree vertex (DIV002)."""
        return KernelMapping(
            unit="edge_tile", warps_per_block=self.warps_per_block
        )

    # ------------------------------------------------------------------
    def analyze(
        self, workload: ConvWorkload, spec: GPUSpec = V100
    ) -> tuple[KernelStats, ScheduleResult]:
        g = workload.graph
        n, E, F = g.num_vertices, g.num_edges, workload.feat_dim
        d = g.in_degrees.astype(np.int64)
        e_s = workload.edge_scalar_loads
        SF = feature_row_sectors(F)
        amap = make_amap(workload)
        row_stride = 4 * F
        scat = scattered_rows_sectors(1, row_stride)

        # per vertex: lanes sweep the edge list in tiles of 32; for each
        # feature dim the tile's 32 lanes load 32 scattered elements and
        # shuffle-reduce into lane 0.
        tiles = -(-d // 32)
        tail = np.where(d > 0, d - 32 * (tiles - 1), 0)
        # index + scalar loads: coalesced across the tile (consecutive edges)
        req_v = 2 + tiles * (1 + e_s)
        l1_idx = index_span_sectors(g.indptr, base=amap.indices_base)
        l1_v = 2 + l1_idx * (1 + e_s)
        # feature loads: per tile, per dim: one scattered request
        req_v = req_v + tiles * F
        full_tiles = np.maximum(tiles - 1, 0)
        l1_feat = F * (full_tiles * 32 + tail) * scat
        l1_v = l1_v + l1_feat
        store_req_v = np.full(n, F // 32 + (F % 32 > 0), dtype=np.int64)
        store_l1_v = np.full(n, SF, dtype=np.int64)
        instr_v = 6 + tiles * F * 2

        dram_load = int(l1_idx.sum()) + -(-4 * (n + 1) // 32)
        if e_s:
            dram_load += int(
                np.sum(index_span_sectors(g.indptr, base=amap.edge_val_base))
            )
        dram_load += cached_dram_sectors(E * F * scat, n * SF, spec.l2_bytes)
        dram_store = n * SF

        cycles = warp_cycles(
            spec,
            instructions=instr_v.astype(np.float64),
            requests=(req_v + store_req_v).astype(np.float64),
            sectors=(l1_v + store_l1_v).astype(np.float64),
        ) + SHUFFLE_REDUCE_CYCLES * tiles * F

        schedule, launch = hardware_assignment(
            cycles, spec, warps_per_block=self.warps_per_block
        )
        stats = KernelStats(
            name=self.name,
            launch=launch,
            load_sectors=int(dram_load),
            store_sectors=int(dram_store),
            l1_load_sectors=int(l1_v.sum()),
            l1_store_sectors=int(store_l1_v.sum()),
            load_requests=int(req_v.sum()),
            store_requests=int(store_req_v.sum()),
            instructions=int(instr_v.sum()),
            warp_cycles=cycles,
            divergent_lanes=int((F * (32 * tiles - d)).clip(min=0).sum()),
        )
        return stats, schedule

    # ------------------------------------------------------------------
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        g = workload.graph
        F = workload.feat_dim
        e_s = workload.edge_scalar_loads
        amap = make_amap(workload)
        for v in range(g.num_vertices):
            start, end = int(g.indptr[v]), int(g.indptr[v + 1])
            sim.warp_load([amap.indptr_addr(v)])
            sim.warp_load([amap.indptr_addr(v + 1)])
            sim.issue(6)
            for t0 in range(start, end, 32):
                idx = np.arange(t0, min(t0 + 32, end))
                # tail tiles leave lanes without an edge for every dim
                sim.diverge((32 - len(idx)) * F)
                sim.warp_load(amap.indices_addr(idx))
                if e_s:
                    sim.warp_load(amap.edge_val_addr(idx))
                srcs = g.indices[idx]
                for j in range(F):
                    sim.warp_load(amap.feat_addr(srcs, j))
                    sim.issue(2)
            for j0 in range(0, F, 32):
                lanes = min(32, F - j0)
                sim.warp_store(amap.out_addr(v, j0 + np.arange(lanes)))
