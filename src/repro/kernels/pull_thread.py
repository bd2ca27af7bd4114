"""Thread-per-vertex pull kernel — the uncoalesced anti-pattern (Table 2).

Each CUDA thread gathers one vertex: lanes of a warp process 32 *different*
vertices, so every feature load touches 32 different rows (Figure 3a),
sector/request explodes, and uneven degrees cause intra-warp divergence.
The paper uses this implementation as the foil for Observation II.
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

__all__ = ["PullThreadKernel"]


class PullThreadKernel(ConvKernel):
    """One thread per destination vertex, scalar loop over edges and dims."""

    name = "pull_thread"

    def __init__(self, *, warps_per_block: int = 4) -> None:
        self.warps_per_block = warps_per_block

    def _mapping(self) -> KernelMapping:
        """Uncoalesced, but still pull-style: each thread owns one output
        row, so the writes stay exclusive and atomic-free.  The access
        table is the Figure 3a anti-pattern, symbolically: each lane walks
        its own edge list (per-lane degree trips → DIV001), gathers rows
        lane by lane (ACC002), and writes its own row at a row-pitch
        stride (ACC003).  Only the indptr bounds load is coalesced."""
        return KernelMapping(
            unit="vertex_thread", warps_per_block=self.warps_per_block
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

        # group vertices into warps of 32 consecutive lanes
        W = -(-n // 32)
        pad = W * 32 - n
        dw = np.pad(d, (0, pad)).reshape(W, 32)
        lanes_w = np.minimum(
            np.full(W, 32), n - 32 * np.arange(W)
        ).astype(np.int64)
        D_w = dw.max(axis=1)  # divergent iteration count per warp
        sum_d_w = dw.sum(axis=1)

        def scat(active):
            return scattered_rows_sectors(int(active), row_stride)

        scat_unit = scat(1)  # sectors per active lane (1 when rows >= 32B)
        # per warp: indptr (2 reqs, consecutive lanes → spans), per iteration
        # one index load + e_s scalar loads + F feature loads, then F stores.
        req_w = 2 + D_w * (1 + e_s + F) + F
        l1_w = (
            2 * np.ceil(4 * lanes_w / 32).astype(np.int64)
            + sum_d_w * (1 + e_s) * scat_unit
            + F * sum_d_w * scat_unit
            + F * lanes_w * scat_unit
        )
        instr_w = 4 + D_w * (2 + F + e_s) + F
        divergent = int(((D_w[:, None] - dw) * (F + 1)).clip(min=0).sum())

        # DRAM: per-lane sequential index/weight streams hit L1; features are
        # full-sector touches per access.
        idx_span = index_span_sectors(g.indptr, base=amap.indices_base)
        dram_load = int(idx_span.sum())
        dram_load += -(-4 * (n + 1) // 32)
        if e_s:
            dram_load += int(
                np.sum(index_span_sectors(g.indptr, base=amap.edge_val_base))
            )
        dram_load += cached_dram_sectors(E * F * scat_unit, n * SF, spec.l2_bytes)
        dram_store = n * SF

        cycles = warp_cycles(
            spec,
            instructions=instr_w.astype(np.float64),
            requests=req_w.astype(np.float64),
            sectors=l1_w.astype(np.float64),
        )
        schedule, launch = hardware_assignment(
            cycles, spec, warps_per_block=self.warps_per_block
        )
        # l1_w counts the stores too; the load side is what remains
        l1_store = int((F * lanes_w * scat_unit).sum())
        stats = KernelStats(
            name=self.name,
            launch=launch,
            load_sectors=int(dram_load),
            store_sectors=int(dram_store),
            l1_load_sectors=int(l1_w.sum()) - l1_store,
            l1_store_sectors=l1_store,
            load_requests=int(req_w.sum() - W * F),
            store_requests=int(W * F),
            instructions=int(instr_w.sum()),
            warp_cycles=cycles,
            divergent_lanes=divergent,
        )
        return stats, schedule

    # ------------------------------------------------------------------
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        g = workload.graph
        n, F = g.num_vertices, workload.feat_dim
        e_s = workload.edge_scalar_loads
        amap = make_amap(workload)
        indptr, indices = g.indptr, g.indices
        for w0 in range(0, n, 32):
            vs = np.arange(w0, min(w0 + 32, n))
            sim.warp_load(amap.indptr_addr(vs))
            sim.warp_load(amap.indptr_addr(vs + 1))
            sim.issue(4)
            starts = indptr[vs].copy()
            ends = indptr[vs + 1]
            t = 0
            dmax = int((ends - starts).max(initial=0))
            for t in range(dmax):
                pos = starts + t
                active = pos < ends
                if not active.any():
                    break
                sim.diverge(int(len(vs) - active.sum()) * (F + 1))
                sim.warp_load(amap.indices_addr(pos[active]))
                if e_s:
                    sim.warp_load(amap.edge_val_addr(pos[active]))
                srcs = indices[pos[active]]
                sim.issue(2)
                for j in range(F):
                    sim.warp_load(amap.feat_addr(srcs, j))
                    sim.issue(1)
            for j in range(F):
                sim.warp_store(amap.out_addr(vs, j))
