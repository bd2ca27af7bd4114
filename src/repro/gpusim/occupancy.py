"""Occupancy computation — theoretical and achieved.

Theoretical occupancy follows the CUDA occupancy-calculator rules (resident
warps limited by warp slots, registers, shared memory, block slots).
Achieved occupancy is derived from the scheduler's makespan: it is the
time-average fraction of warp slots doing useful work, which is how Nsight
defines it and why imbalanced workloads show low values (Fig 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GPUSpec
from .kernel import LaunchConfig

__all__ = [
    "OccupancyReport",
    "theoretical_occupancy",
    "envelope_occupancy",
    "achieved_occupancy",
]


@dataclass(frozen=True)
class OccupancyReport:
    """Occupancy limits of one launch configuration."""

    blocks_per_sm: int
    warps_per_sm: int
    theoretical: float
    limited_by: str


def envelope_occupancy(
    spec: GPUSpec,
    *,
    threads_per_block: int,
    regs_per_thread: int = 32,
    shared_mem_per_block: int = 0,
) -> OccupancyReport:
    """Grid-independent occupancy of a block resource *envelope*.

    The one occupancy calculator: resident blocks per SM are the minimum
    of the warp-slot, register, shared-memory and block-slot limits of the
    per-block footprint.  It never raises on oversized envelopes; it
    reports zero resident blocks and the binding limiter so the resource
    sanitizer can turn that into a finding.
    """
    if threads_per_block < 1:
        raise ValueError("threads_per_block must be positive")
    warps_per_block = -(-threads_per_block // spec.threads_per_warp)
    limits = {
        "warps": spec.max_warps_per_sm // warps_per_block,
        "registers": spec.registers_per_sm
        // max(regs_per_thread * threads_per_block, 1),
        "shared_memory": (
            spec.shared_mem_per_sm // shared_mem_per_block
            if shared_mem_per_block > 0
            else spec.max_blocks_per_sm
        ),
        "block_slots": spec.max_blocks_per_sm,
    }
    limiter = min(limits, key=limits.get)
    return _report(spec, max(min(limits.values()), 0), warps_per_block, limiter)


def theoretical_occupancy(launch: LaunchConfig, spec: GPUSpec) -> OccupancyReport:
    """Occupancy-calculator result for ``launch`` on ``spec``: its block
    envelope's, capped by a grid smaller than the device."""
    envelope = envelope_occupancy(
        spec,
        threads_per_block=launch.threads_per_block,
        regs_per_thread=launch.regs_per_thread,
        shared_mem_per_block=launch.shared_mem_per_block,
    )
    grid_blocks_per_sm = -(-launch.num_blocks // spec.num_sms)
    if grid_blocks_per_sm >= envelope.blocks_per_sm:
        return envelope
    return _report(
        spec,
        grid_blocks_per_sm,
        launch.warps_per_block(spec.threads_per_warp),
        "grid_size",
    )


def _report(
    spec: GPUSpec, blocks: int, warps_per_block: int, limited_by: str
) -> OccupancyReport:
    warps = blocks * warps_per_block
    return OccupancyReport(
        blocks_per_sm=blocks,
        warps_per_sm=warps,
        theoretical=min(warps / spec.max_warps_per_sm, 1.0),
        limited_by=limited_by,
    )


def achieved_occupancy(
    warp_cycles: np.ndarray,
    makespan_cycles: float,
    spec: GPUSpec,
    *,
    resident_limit: float | None = None,
) -> float:
    """Time-average active-warp fraction over the kernel's execution.

    ``sum(warp_cycles)`` is total warp-busy time; dividing by the makespan
    and the device's warp-slot count gives the average occupied fraction —
    exactly Nsight's achieved-occupancy semantics.  ``resident_limit``
    optionally caps the value at the theoretical occupancy.
    """
    if makespan_cycles <= 0:
        return 0.0
    total = float(np.sum(warp_cycles))
    occ = total / (makespan_cycles * spec.max_resident_warps)
    if resident_limit is not None:
        occ = min(occ, resident_limit)
    return float(min(occ, 1.0))
