"""Push-style scatter kernel with atomic updates (Table 1 baseline).

Warp-per-*source*-vertex, feature-parallel lanes: each warp walks its
vertex's out-edges and atomically adds the (weighted) source row into every
destination's result row.  Correct without synchronization only because of
the atomics — which is exactly the overhead Observation I measures.
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
from .base import (
    ConvKernel,
    feature_row_sectors,
    feature_rounds,
    index_span_sectors,
    make_amap,
)

__all__ = ["PushKernel"]


class PushKernel(ConvKernel):
    """Warp-per-source-vertex atomic scatter over out-edges."""

    name = "push"

    def __init__(self, *, warps_per_block: int = 4) -> None:
        self.warps_per_block = warps_per_block

    def supports(self, workload: ConvWorkload) -> bool:
        # scatter cannot express per-destination softmax or max-reduce
        return workload.attention is None and workload.reduce != "max"

    def _mapping(self) -> KernelMapping:
        """Each warp initializes its own source row (exclusive write of
        the self term), then scatters into arbitrary destination rows:
        every edge merges a full feature row with atomicAdd (E*F element
        ops).  Lane-level traffic is as coalesced as TLPGNN's (own row
        reads, consecutive-lane rounds); the scatter damage is at the
        *row* level: every edge atomically targets an indirected
        destination row, so units collide (ACC004) where warp-per-vertex
        cannot."""
        return KernelMapping(
            unit="source_push", warps_per_block=self.warps_per_block
        )

    # ------------------------------------------------------------------
    def analyze(
        self, workload: ConvWorkload, spec: GPUSpec = V100
    ) -> tuple[KernelStats, ScheduleResult]:
        g = workload.graph
        rev = g.reverse()
        n, E, F = g.num_vertices, g.num_edges, workload.feat_dim
        o = rev.in_degrees.astype(np.int64)  # out-degrees of original graph
        e_s = workload.edge_scalar_loads
        R = feature_rounds(F, 32)
        SF = feature_row_sectors(F)
        amap = make_amap(workload)

        # per source vertex: bounds, own row, per edge (dst idx + scalar +
        # atomic rows)
        req_v = 2 + R + o * (1 + e_s)
        l1_load_v = 2 + SF + o * (1 + e_s)
        l1_atomic_v = o * SF
        atomic_req_v = o * R
        store_req_v = np.full(n, R, dtype=np.int64)  # self-term output init
        store_l1_v = np.full(n, SF, dtype=np.int64)
        instr_v = 6 + R + o * (2 + R + e_s)

        idx_span = index_span_sectors(rev.indptr, base=amap.indices_base)
        dram_load = int(idx_span.sum()) + -(-4 * (n + 1) // 32)
        dram_load += n * SF  # each source row read once
        if e_s:
            # edge weights indexed by original edge id — a permuted gather
            dram_load += cached_dram_sectors(E, -(-4 * E // 32), spec.l2_bytes)
        dram_atomic = cached_dram_sectors(E * SF, n * SF, spec.l2_bytes)
        # the read half of the read-modify-write
        dram_load += dram_atomic

        collision = scatter_collision_rate(g.in_degrees)
        cycles = warp_cycles(
            spec,
            instructions=instr_v.astype(np.float64),
            requests=(req_v + atomic_req_v + store_req_v).astype(np.float64),
            sectors=(l1_load_v + l1_atomic_v + store_l1_v).astype(np.float64),
        )
        schedule, launch = hardware_assignment(
            cycles, spec, warps_per_block=self.warps_per_block
        )
        stats = KernelStats(
            name=self.name,
            launch=launch,
            load_sectors=int(dram_load),
            store_sectors=int(n) * SF,
            atomic_sectors=int(dram_atomic),
            l1_load_sectors=int(l1_load_v.sum()),
            l1_store_sectors=int(store_l1_v.sum()),
            l1_atomic_sectors=int(l1_atomic_v.sum()),
            load_requests=int(req_v.sum()),
            store_requests=int(store_req_v.sum()),
            atomic_requests=int(atomic_req_v.sum()),
            atomic_ops=int(E) * F,
            atomic_collision_rate=collision,
            instructions=int(instr_v.sum()),
            warp_cycles=cycles,
        )
        return stats, schedule

    # ------------------------------------------------------------------
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        g = workload.graph
        rev = g.reverse()
        F = workload.feat_dim
        e_s = workload.edge_scalar_loads
        amap = make_amap(workload)
        rounds = [(r * 32, min(32, F - r * 32)) for r in range(feature_rounds(F, 32))]
        for v in range(g.num_vertices):
            start, end = int(rev.indptr[v]), int(rev.indptr[v + 1])
            sim.warp_load([amap.indptr_addr(v)])
            sim.warp_load([amap.indptr_addr(v + 1)])
            for off, lanes in rounds:
                sim.warp_load(amap.feat_addr(v, off + np.arange(lanes)))
                sim.warp_store(amap.out_addr(v, off + np.arange(lanes)))
            sim.issue(6)
            for i in range(start, end):
                dst = int(rev.indices[i])
                sim.warp_load([amap.indices_addr(i)])
                if e_s:
                    sim.warp_load([amap.edge_val_addr(i)])
                sim.issue(2)
                for off, lanes in rounds:
                    sim.warp_atomic(amap.out_addr(dst, off + np.arange(lanes)))
                    sim.issue(1)
