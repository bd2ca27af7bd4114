"""Hardware-based dynamic workload assignment (Section 5).

One warp per vertex; the GPU's block distributor hands blocks to SMs as
resources free up.  The tunable is warps-per-block: fewer warps = better
balance (a block retires when its slowest warp finishes) but more blocks to
schedule; more warps = the opposite.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.config import GPUSpec
from ..gpusim.kernel import LaunchConfig
from ..gpusim.scheduler import ScheduleResult, hardware_schedule

__all__ = ["hardware_assignment"]


def hardware_assignment(
    vertex_cycles: np.ndarray,
    spec: GPUSpec,
    *,
    warps_per_block: int = 4,
    regs_per_thread: int = 32,
) -> tuple[ScheduleResult, LaunchConfig]:
    """Schedule one-warp-per-vertex work under the block distributor."""
    n = int(np.asarray(vertex_cycles).size)
    blocks = max(1, -(-n // warps_per_block))
    launch = LaunchConfig(
        num_blocks=blocks,
        threads_per_block=warps_per_block * spec.threads_per_warp,
        regs_per_thread=regs_per_thread,
    )
    return hardware_schedule(vertex_cycles, launch, spec), launch

