"""GNNAdvisor-style neighbor-group kernel (Table 1 / Figure 8 baseline).

Each vertex's neighbour list is pre-partitioned into fixed-size groups;
each group is processed by one warp (feature-parallel lanes, like TLPGNN's
second level) and the per-group partial result is merged into the vertex's
row with ``atomicAdd`` — the atomic traffic Figure 8 charts.  Group-table
construction is the pre-processing overhead the framework layer models.
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

__all__ = ["NeighborGroupKernel", "build_groups"]


def build_groups(in_degrees: np.ndarray, group_size: int) -> np.ndarray:
    """Sizes of the fixed-size neighbour groups, vertex-major.

    A vertex of degree ``d`` yields ``ceil(d/group_size)`` groups: full
    groups followed by the remainder.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    d = np.asarray(in_degrees, dtype=np.int64)
    n_full = d // group_size
    rem = d % group_size
    counts = n_full + (rem > 0)
    # for each vertex: n_full groups of `group_size`, then the remainder
    sizes = np.full(int(counts.sum()), group_size, dtype=np.int64)
    # the last group of each vertex with a remainder is the remainder
    ends = np.cumsum(counts)
    has_rem = rem > 0
    sizes[ends[has_rem] - 1] = rem[has_rem]
    return sizes


class NeighborGroupKernel(ConvKernel):
    """Warp-per-neighbour-group gather with atomic merge (GNNAdvisor)."""

    name = "neighbor_group"

    def __init__(self, *, group_size: int = 3, warps_per_block: int = 4) -> None:
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.group_size = group_size
        self.warps_per_block = warps_per_block
        self.name = f"neighbor_group[gs={group_size}]"

    def supports(self, workload: ConvWorkload) -> bool:
        return workload.attention is None and workload.reduce != "max"

    def _mapping(self) -> KernelMapping:
        """One warp per neighbour group; groups of the same vertex merge
        their partial rows with atomicAdd — sum(ceil(d/gs)) * F element
        ops, Figure 8's traffic.  The host-built group table is an input.
        Feature rows are fetched as two half-warp requests (GNNAdvisor's
        dimension tiling), each still a consecutive-lane stream; the
        atomic merge targets the group's *own* vertex row — warp
        collisions, but no indirected scatter (Figure 8, not Figure 7)."""
        return KernelMapping(
            unit="neighbor_group",
            lanes=16,  # GNNAdvisor's half-warp dimension tiling
            warps_per_block=self.warps_per_block,
            group_size=self.group_size,
            reads_group_table=True,
        )

    # ------------------------------------------------------------------
    def analyze(
        self, workload: ConvWorkload, spec: GPUSpec = V100
    ) -> tuple[KernelStats, ScheduleResult]:
        g = workload.graph
        n, E, F = g.num_vertices, g.num_edges, workload.feat_dim
        d = g.in_degrees
        e_s = workload.edge_scalar_loads
        R = feature_rounds(F, 32)
        SF = feature_row_sectors(F)
        amap = make_amap(workload)

        sizes = build_groups(d, self.group_size)
        n_groups = sizes.size

        # per group: 3 metadata loads (start, size, owner), per edge the
        # index + scalar + feature row, one atomic row merge
        # GNNAdvisor's dimension tiling splits each row fetch into two
        # requests (half-coalesced): double the issue cost; each half-request
        # touches ceil(SF/2) sectors (so narrow rows re-touch their sector).
        half_sectors = 2 * (-(-SF // 2))
        req_g = 3 + sizes * (1 + e_s + 2 * R)
        l1_load_g = 3 + sizes * (1 + e_s) + sizes * half_sectors
        l1_atomic_g = np.full(n_groups, SF, dtype=np.int64)
        atomic_req_g = np.full(n_groups, R, dtype=np.int64)
        instr_g = 4 + sizes * (2 + R + e_s) + R

        idx_span = index_span_sectors(g.indptr, base=amap.indices_base)
        dram_load = int(idx_span.sum()) + 3 * (-(-4 * n_groups // 32))
        if e_s:
            dram_load += int(
                np.sum(index_span_sectors(g.indptr, base=amap.edge_val_base))
            )
        # the group-table streams pollute L2, halving its effective reach
        dram_load += cached_dram_sectors(E * SF, n * SF, spec.l2_bytes // 2)
        dram_atomic = cached_dram_sectors(n_groups * SF, n * SF, spec.l2_bytes)
        dram_load += dram_atomic

        groups_per_vertex = d // self.group_size + (d % self.group_size > 0)
        collision = scatter_collision_rate(groups_per_vertex, window=8)

        cycles = warp_cycles(
            spec,
            instructions=instr_g.astype(np.float64),
            requests=(req_g + atomic_req_g).astype(np.float64),
            sectors=(l1_load_g + l1_atomic_g).astype(np.float64),
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
            l1_load_sectors=int(l1_load_g.sum()),
            l1_atomic_sectors=int(l1_atomic_g.sum()),
            load_requests=int(req_g.sum()),
            atomic_requests=int(atomic_req_g.sum()),
            atomic_ops=int(n_groups) * F,
            atomic_collision_rate=float(collision),
            instructions=int(instr_g.sum()),
            warp_cycles=cycles,
            workspace_bytes=int(3 * 4 * n_groups),  # the group table
        )
        return stats, schedule

    # ------------------------------------------------------------------
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        g = workload.graph
        F = workload.feat_dim
        e_s = workload.edge_scalar_loads
        amap = make_amap(workload)
        rounds = [(r * 32, min(32, F - r * 32)) for r in range(feature_rounds(F, 32))]
        gs = self.group_size
        for v in range(g.num_vertices):
            start, end = int(g.indptr[v]), int(g.indptr[v + 1])
            for g0 in range(start, end, gs):
                sim.warp_load([amap.indptr_addr(v)])  # group meta x3
                sim.warp_load([amap.indptr_addr(v)])
                sim.warp_load([amap.indptr_addr(v)])
                sim.issue(4)
                for i in range(g0, min(g0 + gs, end)):
                    sim.warp_load([amap.indices_addr(i)])
                    if e_s:
                        sim.warp_load([amap.edge_val_addr(i)])
                    sim.issue(2)
                    src = int(g.indices[i])
                    for off, lanes in rounds:
                        # half-coalesced: the dimension tiling splits each
                        # row fetch into two requests
                        half = -(-lanes // 2)
                        sim.warp_load(amap.feat_addr(src, off + np.arange(half)))
                        sim.warp_load(
                            amap.feat_addr(src, off + half + np.arange(lanes - half))
                        )
                        sim.issue(2)
                for off, lanes in rounds:
                    sim.warp_atomic(amap.out_addr(v, off + np.arange(lanes)))
                    sim.issue(1)
