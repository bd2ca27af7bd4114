"""Software-based dynamic workload assignment — Algorithm 1 of the paper.

A fixed resident grid of warps pulls chunks of ``step`` consecutive
vertices from a global ``atomicAdd`` counter until the pool drains.  The
counter serves pulls in earliest-free-warp order, so the pool is the greedy
list schedule of :func:`repro.gpusim.scheduler.place` over the chunks, each
charged one fetch; :func:`~repro.gpusim.scheduler.software_pool_schedule`
is its makespan.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.config import GPUSpec
from ..gpusim.kernel import LaunchConfig
from ..gpusim.scheduler import ScheduleResult, software_pool_schedule

__all__ = ["software_assignment"]


def software_assignment(
    vertex_cycles: np.ndarray,
    spec: GPUSpec,
    *,
    step: int = 8,
    warps_per_block: int = 8,
    regs_per_thread: int = 32,
) -> tuple[ScheduleResult, LaunchConfig]:
    """Schedule via the task pool with a resident-sized persistent grid."""
    blocks_per_sm = max(spec.max_warps_per_sm // warps_per_block, 1)
    launch = LaunchConfig(
        num_blocks=spec.num_sms * blocks_per_sm,
        threads_per_block=warps_per_block * spec.threads_per_warp,
        regs_per_thread=regs_per_thread,
    )
    resident = launch.num_warps(spec.threads_per_warp)
    sched = software_pool_schedule(
        vertex_cycles, spec, step=step, resident_warps=resident
    )
    return sched, launch
