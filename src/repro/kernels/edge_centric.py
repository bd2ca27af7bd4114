"""Edge-centric scatter kernel with atomic updates (Table 1 baseline).

Each warp owns a chunk of consecutive edges (COO order) and, for each edge,
atomically adds the weighted source row into the destination row.  The
workload is perfectly balanced across warps — the upside the paper grants
edge-parallelism — but every edge pays the atomic toll, and consecutive
edges of the same destination serialize hard (Observation I).
"""

from __future__ import annotations

import numpy as np

from ..balance.hardware import hardware_assignment
from ..gpusim.atomics import scatter_collision_rate
from ..gpusim.config import V100, GPUSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.memory import cached_dram_sectors
from ..gpusim.microsim import MicroSim
from ..gpusim.scheduler import ScheduleResult
from ..gpusim.warpcost import warp_cycles
from ..models.convspec import ConvWorkload
from ..mp.derive import KernelMapping
from .base import ConvKernel, feature_row_sectors, feature_rounds, make_amap

__all__ = ["EdgeCentricKernel"]


class EdgeCentricKernel(ConvKernel):
    """Warp-per-edge-chunk atomic scatter (X-Stream-style edge parallel)."""

    name = "edge_centric"

    def __init__(self, *, edges_per_warp: int = 32, warps_per_block: int = 4) -> None:
        if edges_per_warp < 1:
            raise ValueError("edges_per_warp must be >= 1")
        self.edges_per_warp = edges_per_warp
        self.warps_per_block = warps_per_block

    def supports(self, workload: ConvWorkload) -> bool:
        return workload.attention is None and workload.reduce != "max"

    def _mapping(self) -> KernelMapping:
        """Pure scatter over COO chunks (no indptr): every edge atomically
        merges a feature row into its destination — no plain stores at
        all; even the self term rides the atomic path.  Ids and rows are
        lane-coalesced per edge, but the destination row of every atomic
        is indirected: the chunk's edges scatter over arbitrary output
        rows (ACC004, Observation I)."""
        return KernelMapping(
            unit="edge_chunk", warps_per_block=self.warps_per_block
        )

    # ------------------------------------------------------------------
    def analyze(
        self, workload: ConvWorkload, spec: GPUSpec = V100
    ) -> tuple[KernelStats, ScheduleResult]:
        g = workload.graph
        n, E, F = g.num_vertices, g.num_edges, workload.feat_dim
        e_s = workload.edge_scalar_loads
        R = feature_rounds(F, 32)
        SF = feature_row_sectors(F)
        epw = self.edges_per_warp

        W = max(1, -(-E // epw))
        edges_w = np.full(W, epw, dtype=np.int64)
        if E:
            edges_w[-1] = E - epw * (W - 1)
        else:
            edges_w[:] = 0

        # per edge: src idx + dst idx + scalar (uniform loads), gather src
        # row, atomic dst row
        req_w = edges_w * (2 + e_s + R)
        l1_load_w = edges_w * (2 + e_s) + edges_w * SF
        l1_atomic_w = edges_w * SF
        atomic_req_w = edges_w * R
        instr_w = 2 + edges_w * (3 + R + e_s)

        # DRAM: COO src/dst (+weights) stream sequentially; rows gather
        # through L2; atomics read-modify-write destination rows.
        stream_arrays = 2 + e_s
        dram_load = stream_arrays * (-(-4 * E // 32)) if E else 0
        dram_load += cached_dram_sectors(E * SF, n * SF, spec.l2_bytes)
        dram_atomic = cached_dram_sectors(E * SF, n * SF, spec.l2_bytes)
        dram_load += dram_atomic  # read half of the RMW

        collision = scatter_collision_rate(g.in_degrees)

        cycles = warp_cycles(
            spec,
            instructions=instr_w.astype(np.float64),
            requests=(req_w + atomic_req_w).astype(np.float64),
            sectors=(l1_load_w + l1_atomic_w).astype(np.float64),
        )
        schedule, launch = hardware_assignment(
            cycles, spec, warps_per_block=self.warps_per_block
        )
        stats = KernelStats(
            name=self.name,
            launch=launch,
            load_sectors=int(dram_load),
            store_sectors=0,
            atomic_sectors=int(dram_atomic),
            l1_load_sectors=int(l1_load_w.sum()),
            l1_atomic_sectors=int(l1_atomic_w.sum()),
            load_requests=int(req_w.sum()),
            atomic_requests=int(atomic_req_w.sum()),
            atomic_ops=int(E) * F,
            atomic_collision_rate=float(collision),
            instructions=int(instr_w.sum()),
            warp_cycles=cycles,
        )
        return stats, schedule

    # ------------------------------------------------------------------
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        g = workload.graph
        F = workload.feat_dim
        e_s = workload.edge_scalar_loads
        amap = make_amap(workload)
        src, dst = g.edge_list()
        rounds = [(r * 32, min(32, F - r * 32)) for r in range(feature_rounds(F, 32))]
        E = g.num_edges
        for c0 in range(0, E, self.edges_per_warp):
            sim.issue(2)
            for i in range(c0, min(c0 + self.edges_per_warp, E)):
                sim.warp_load([amap.indices_addr(i)])  # src id
                sim.warp_load([amap.indices_addr(i)])  # dst id (COO twin)
                if e_s:
                    sim.warp_load([amap.edge_val_addr(i)])
                sim.issue(3)
                for off, lanes in rounds:
                    sim.warp_load(amap.feat_addr(int(src[i]), off + np.arange(lanes)))
                    sim.warp_atomic(amap.out_addr(int(dst[i]), off + np.arange(lanes)))
                    sim.issue(1)
