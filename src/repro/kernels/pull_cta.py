"""CTA-per-vertex pull kernel — the third level-1 mapping of Section 4.2.

"Mapping a vertex to a whole CTA introduces synchronization overhead into
the kernels ... coordinating the warps in the same CTA to accomplish the
computation of a single vertex requires extra sync operations, and atomic
operations are needed to update the resulting feature of the vertex."

Each thread block (``warps_per_block`` warps) processes one vertex: the
warps split the edge list, accumulate partials, and combine them through
shared memory with ``__syncthreads`` barriers plus a final atomic-free
reduction (tree reduce across warps).  Correct, coalesced — but it burns
block-level synchronization on every vertex and wastes whole blocks on
low-degree vertices, which is why the paper picks warp-per-vertex.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.config import V100, GPUSpec
from ..gpusim.kernel import KernelStats, LaunchConfig
from ..gpusim.memory import cached_dram_sectors
from ..gpusim.microsim import MicroSim
from ..gpusim.scheduler import ScheduleResult, hardware_schedule
from ..gpusim.warpcost import warp_cycles
from ..lint.effects import LaunchEnvelope
from ..models.convspec import ConvWorkload
from ..mp.derive import KernelMapping, derive_effects
from .base import (
    ConvKernel,
    feature_row_sectors,
    feature_rounds,
    index_span_sectors,
    make_amap,
)

__all__ = ["PullCTAKernel"]

#: cycles one __syncthreads barrier costs each participating warp
SYNC_CYCLES = 30.0


class PullCTAKernel(ConvKernel):
    """One thread block per destination vertex, warps splitting the edges."""

    name = "pull_cta"

    def __init__(self, *, warps_per_block: int = 4) -> None:
        if warps_per_block < 1:
            raise ValueError("warps_per_block must be >= 1")
        self.warps_per_block = warps_per_block
        self.name = f"pull_cta[w={warps_per_block}]"

    def _mapping(self) -> KernelMapping:
        """CTA-per-vertex keeps TLPGNN's coalescing (feature dims on the
        lanes, warp-uniform indices): its costs are synchronization and
        wasted blocks, which the resource and cost models account, not
        the access shape."""
        return KernelMapping(
            unit="vertex_cta", warps_per_block=self.warps_per_block
        )

    def effects(self, workload: ConvWorkload):
        # Warps combine partial rows through a shared-memory tree reduce
        # (one staged feature row per warp), then the block's lane group
        # writes its vertex row exclusively.  The smem staging depends on
        # the feature width, so the envelope is built here rather than
        # from the mapping alone.
        smem = 4 * workload.feat_dim * self.warps_per_block
        return derive_effects(
            self._mapping(), workload,
            envelope=LaunchEnvelope(
                threads_per_block=self.warps_per_block * 32,
                shared_mem_per_block=smem,
            ),
        )

    # ------------------------------------------------------------------
    def analyze(
        self, workload: ConvWorkload, spec: GPUSpec = V100
    ) -> tuple[KernelStats, ScheduleResult]:
        g = workload.graph
        n, E, F = g.num_vertices, g.num_edges, workload.feat_dim
        d = g.in_degrees.astype(np.int64)
        W = self.warps_per_block
        e_s = workload.edge_scalar_loads
        R = feature_rounds(F, 32)
        SF = feature_row_sectors(F)
        amap = make_amap(workload)

        # per vertex (= per block): the edge list splits across W warps
        # (each edge visited exactly once); one barrier + shared-memory tree
        # reduce (log2 W rounds of smem traffic) combines the partials.
        per_warp_edges = -(-d // W)  # the slowest warp's share
        sync_rounds = max(int(np.ceil(np.log2(max(W, 2)))), 1)
        req_v = 2 * W + d * (1 + e_s + R)
        l1_v = 2 * W + d * (1 + e_s + SF)
        store_req_v = np.full(n, R, dtype=np.int64)
        store_l1_v = np.full(n, SF, dtype=np.int64)
        instr_v = (
            8 * W
            + d * (2 + R + e_s)
            + sync_rounds * W * 4  # smem staging of partial rows
            + R
        )

        # block-serial cost per vertex: the slowest warp's share plus the
        # barrier + reduction epilogue every warp waits through.
        block_cycles = warp_cycles(
            spec,
            instructions=(
                8.0 + per_warp_edges * (2 + R + e_s) + sync_rounds * 4.0
            ),
            requests=(2.0 + per_warp_edges * (1 + e_s + R) + store_req_v),
            sectors=(2.0 + per_warp_edges * (1 + e_s + SF) + store_l1_v),
        ) + SYNC_CYCLES * (sync_rounds + 1)

        idx_span = index_span_sectors(g.indptr, base=amap.indices_base)
        dram_load = int(idx_span.sum()) + -(-4 * (n + 1) // 32)
        if e_s:
            dram_load += int(
                np.sum(index_span_sectors(g.indptr, base=amap.edge_val_base))
            )
        dram_load += cached_dram_sectors(E * SF, n * SF, spec.l2_bytes)
        dram_store = n * SF

        launch = LaunchConfig(
            num_blocks=max(n, 1),
            threads_per_block=W * spec.threads_per_warp,
        )
        # every block's W warps are *held* for the block's duration (that is
        # what the schedule sees), but only their fair share of the edge
        # work is useful — barrier wait must not count as memory-active
        # occupancy, or CTA mapping would look better than it is.
        held = np.repeat(block_cycles, W)
        useful = np.repeat(
            warp_cycles(
                spec,
                instructions=(8.0 + (d / W) * (2 + R + e_s)),
                requests=(2.0 + (d / W) * (1 + e_s + R)),
                sectors=(2.0 + (d / W) * (1 + e_s + SF)),
            ),
            W,
        )
        schedule = hardware_schedule(held, launch, spec)
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
            warp_cycles=useful,
            divergent_lanes=int(((per_warp_edges * W - d) * R).sum()),
        )
        return stats, schedule

    # ------------------------------------------------------------------
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        g = workload.graph
        F = workload.feat_dim
        W = self.warps_per_block
        e_s = workload.edge_scalar_loads
        amap = make_amap(workload)
        rounds = [(r * 32, min(32, F - r * 32)) for r in range(feature_rounds(F, 32))]
        for v in range(g.num_vertices):
            start, end = int(g.indptr[v]), int(g.indptr[v + 1])
            for w in range(W):
                sim.warp_load([amap.indptr_addr(v)])
                sim.warp_load([amap.indptr_addr(v + 1)])
                sim.issue(8)
                for i in range(start + w, end, W):
                    sim.warp_load([amap.indices_addr(i)])
                    if e_s:
                        sim.warp_load([amap.edge_val_addr(i)])
                    sim.issue(2)
                    src = int(g.indices[i])
                    for off, lanes in rounds:
                        sim.warp_load(amap.feat_addr(src, off + np.arange(lanes)))
                        sim.issue(1)
            # barrier + smem tree reduce (no global traffic), then one store
            sim.issue(4 * max(int(np.ceil(np.log2(max(W, 2)))), 1) * W)
            for off, lanes in rounds:
                sim.warp_store(amap.out_addr(v, off + np.arange(lanes)))
