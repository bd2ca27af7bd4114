"""Counter → time cost model (roofline + makespan + host overhead).

The model mirrors how the paper's measurements decompose:

* **GPU time** per kernel = max(SM makespan, DRAM bandwidth time).  The
  makespan comes from the scheduling policy (hardware blocks or software
  pool) over per-warp cycle costs; the bandwidth term charges every 32-byte
  sector the kernel moves.
* **Runtime − GPU time** (Table 3's launch-overhead row) = per-kernel host
  launch cost, plus a per-kernel framework dispatch cost for systems driven
  through a Python framework loop (DGL).
* Profiler metrics (achieved occupancy, SM utilization, stall-for-long-
  scoreboard) are derived from the same quantities, with the same
  directional semantics Nsight gives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import get_registry
from .config import GPUSpec
from .kernel import KernelStats, PipelineStats
from .occupancy import achieved_occupancy
from .scheduler import ScheduleResult

__all__ = [
    "KernelTiming",
    "PipelineTiming",
    "estimate_kernel",
    "estimate_pipeline",
    "stream_demands",
]


@dataclass(frozen=True)
class KernelTiming:
    """Modeled timing and profiler metrics of one kernel launch."""

    name: str
    makespan_cycles: float
    sm_seconds: float
    bandwidth_seconds: float
    atomic_seconds: float
    gpu_seconds: float
    launch_seconds: float
    occupancy: float
    sm_utilization: float
    stall_scoreboard_cycles: float
    sectors_per_request: float
    total_bytes: int
    atomic_bytes: int

    @property
    def runtime_seconds(self) -> float:
        return self.gpu_seconds + self.launch_seconds


@dataclass
class PipelineTiming:
    """Aggregated timing of a multi-kernel pipeline."""

    name: str
    kernels: list[KernelTiming] = field(default_factory=list)
    framework_seconds: float = 0.0
    preprocess_seconds: float = 0.0

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def gpu_seconds(self) -> float:
        return sum(k.gpu_seconds for k in self.kernels)

    @property
    def launch_seconds(self) -> float:
        return sum(k.launch_seconds for k in self.kernels) + self.framework_seconds

    @property
    def runtime_seconds(self) -> float:
        """Kernel time + host overhead (excludes one-off pre-processing)."""
        return self.gpu_seconds + self.launch_seconds

    @property
    def total_seconds(self) -> float:
        """End-to-end including pre-processing."""
        return self.runtime_seconds + self.preprocess_seconds

    @property
    def total_bytes(self) -> int:
        return sum(k.total_bytes for k in self.kernels)

    @property
    def atomic_bytes(self) -> int:
        return sum(k.atomic_bytes for k in self.kernels)

    @property
    def avg_sm_utilization(self) -> float:
        """GPU-time-weighted average SM utilization across kernels."""
        total = self.gpu_seconds
        if total <= 0:
            return 0.0
        return sum(k.sm_utilization * k.gpu_seconds for k in self.kernels) / total

    @property
    def avg_occupancy(self) -> float:
        total = self.gpu_seconds
        if total <= 0:
            return 0.0
        return sum(k.occupancy * k.gpu_seconds for k in self.kernels) / total

    @property
    def avg_stall_scoreboard(self) -> float:
        total = self.gpu_seconds
        if total <= 0:
            return 0.0
        return (
            sum(k.stall_scoreboard_cycles * k.gpu_seconds for k in self.kernels)
            / total
        )


def estimate_kernel(
    stats: KernelStats,
    schedule: ScheduleResult,
    spec: GPUSpec,
    *,
    theoretical_occupancy: float | None = None,
) -> KernelTiming:
    """Convert one kernel's counters + schedule into modeled time & metrics."""
    makespan = schedule.makespan_cycles
    sm_seconds = makespan / spec.clock_hz
    bandwidth_seconds = stats.total_bytes / spec.mem_bandwidth_bytes_per_s
    # Device-level atomic-unit serialization: scatter kernels funnel every
    # read-modify-write through the L2 atomic pipeline (Observation I).
    eff_ops = stats.atomic_ops * (
        1.0
        + stats.atomic_collision_rate * (spec.atomic_contention_factor - 1.0)
    )
    atomic_seconds = eff_ops / (spec.atomic_ops_per_cycle * spec.clock_hz)
    # SM issue-throughput bound: resident warps share each SM's issue slots,
    # so aggregate warp-busy cycles cannot retire faster than the device-wide
    # issue bandwidth even when no single warp is the critical path.
    issue_seconds = schedule.busy_warp_cycles / (
        spec.num_sms * spec.issue_slots_per_sm * spec.clock_hz
    )

    # Achieved occupancy measures *scheduling quality*: the time-average
    # active-warp fraction over the SM-side makespan (a bandwidth-stretched
    # kernel keeps its warps resident, so stretching must not dilute it).
    occupancy = achieved_occupancy(
        stats.warp_cycles
        if stats.warp_cycles.size
        else np.array([schedule.busy_warp_cycles]),
        max(schedule.makespan_cycles, 1.0),
        spec,
        resident_limit=theoretical_occupancy,
    )

    # Little's law: DRAM bandwidth is only reachable with enough warps in
    # flight to cover the memory latency.  Poorly scheduled kernels (static
    # mapping, huge blocks) run tails at low occupancy and leave bandwidth
    # on the table — the mechanism behind the paper's Figure 9/10 gaps.
    bw_efficiency = min(1.0, 0.05 + occupancy / spec.bw_occupancy_knee)
    bandwidth_seconds = bandwidth_seconds / bw_efficiency

    gpu_seconds = max(sm_seconds, issue_seconds, bandwidth_seconds, atomic_seconds)
    eff_makespan = gpu_seconds * spec.clock_hz

    # SM utilization: fraction of SM pipeline bandwidth doing useful work —
    # arithmetic issue plus the address/memory pipes the requests occupy.
    issue_cycles = (
        stats.instructions + 0.5 * stats.total_requests
    ) * spec.cycles_per_instr * 5.0
    denom = max(eff_makespan * spec.num_sms, 1.0)
    sm_utilization = float(min(issue_cycles / denom, 1.0))

    # Stall-for-long-scoreboard: average cycles a warp sits on a memory
    # dependency.  Scales with DRAM pressure (bandwidth utilization) and with
    # how badly coalesced the requests are (sectors/request above the
    # fully-coalesced 4).
    # Stall-for-long-scoreboard: how many cycles a warp typically sits on a
    # memory dependency.  Driven by memory intensity (DRAM bytes moved per
    # warp instruction — lean kernels wait less) and worsened by uncoalesced
    # requests (sector/request above the fully-coalesced 4).
    intensity = stats.total_bytes / max(stats.instructions, 1)
    spr = stats.sectors_per_request
    coalesce_penalty = max(spr / 4.0, 1.0) ** 0.5 if spr > 0 else 1.0
    stall = (
        spec.mem_latency_cycles
        * (intensity / (intensity + 64.0))
        * coalesce_penalty
    )

    timing = KernelTiming(
        name=stats.name,
        makespan_cycles=float(eff_makespan),
        sm_seconds=sm_seconds,
        bandwidth_seconds=bandwidth_seconds,
        atomic_seconds=atomic_seconds,
        gpu_seconds=gpu_seconds,
        launch_seconds=spec.kernel_launch_seconds,
        occupancy=occupancy,
        sm_utilization=sm_utilization,
        stall_scoreboard_cycles=float(stall),
        sectors_per_request=spr,
        total_bytes=stats.total_bytes,
        atomic_bytes=stats.atomic_bytes,
    )
    registry = get_registry()
    if registry is not None:
        registry.observe_kernel_timing(stats.name, timing, stats)
    return timing


def stream_demands(timing: KernelTiming) -> tuple[float, float]:
    """Split one kernel's modeled GPU time into (compute, memory) demands
    for concurrent-stream simulation (:mod:`repro.gpusim.streams`).

    The memory side is what the kernel needs from DRAM bandwidth and the L2
    atomic unit; the compute side covers the SM makespan and device issue
    throughput.  A kernel alone completes in the max of the two — exactly
    its ``gpu_seconds`` — so single-stream serving reduces to the offline
    model (the serve parity tests pin this).
    """
    mem = max(timing.bandwidth_seconds, timing.atomic_seconds)
    # gpu_seconds = max(sm, issue, bandwidth, atomic): when the binding term
    # is compute-side it is gpu_seconds itself (sm or issue); otherwise the
    # compute side contributes its makespan only.
    comp = timing.gpu_seconds if timing.gpu_seconds > mem else timing.sm_seconds
    return comp, mem


def estimate_pipeline(
    pipeline: PipelineStats,
    timings: list[KernelTiming],
    spec: GPUSpec,
    *,
    framework_dispatch: bool = False,
) -> PipelineTiming:
    """Assemble per-kernel timings into a pipeline total.

    ``framework_dispatch=True`` adds the per-kernel Python-framework
    dispatch cost the paper measures for DGL ("Runtime - GPU time").
    """
    fw = (
        spec.framework_dispatch_seconds * len(timings)
        if framework_dispatch
        else 0.0
    )
    return PipelineTiming(
        name=pipeline.name,
        kernels=list(timings),
        framework_seconds=fw,
        preprocess_seconds=pipeline.preprocess_seconds,
    )
