"""GPU hardware description and cost-model constants.

Defaults describe an NVIDIA Tesla V100 (SXM2 32GB), the device the paper
profiles on (80 SMs, 64 KB registers per SM, up to 64 resident warps per
SM, 32-byte memory sectors, 128-byte cache lines, ~900 GB/s HBM2).

The cycle/latency constants below are a *model*, calibrated so that the
counter-level effects the paper measures (atomic serialization, coalescing,
launch overhead, scheduling overhead) translate into runtime ratios of the
magnitude the paper reports.  They are all overridable per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["GPUSpec", "V100", "A100", "scaled_spec"]


@dataclass(frozen=True)
class GPUSpec:
    """Hardware limits and cost constants of the modeled device."""

    name: str = "V100-SXM2-32GB"

    # ---- structural limits -------------------------------------------------
    num_sms: int = 80
    threads_per_warp: int = 32
    max_warps_per_sm: int = 64
    max_threads_per_block: int = 1024
    max_blocks_per_sm: int = 32
    registers_per_sm: int = 65536
    max_registers_per_thread: int = 255
    shared_mem_per_sm: int = 96 * 1024
    dram_bytes: int = 32 * 1024**3
    #: device limit on concurrently resident kernels (CUDA concurrent-kernel
    #: execution; V100/A100 allow 128 streams' worth of co-residency)
    max_concurrent_kernels: int = 128

    # ---- memory system -----------------------------------------------------
    sector_bytes: int = 32
    cache_line_bytes: int = 128
    l1_bytes: int = 128 * 1024
    l2_bytes: int = 6 * 1024**2
    mem_bandwidth_bytes_per_s: float = 900e9
    mem_latency_cycles: float = 400.0

    # ---- clocks ------------------------------------------------------------
    clock_hz: float = 1.38e9

    # ---- per-warp cycle costs (cost model) ---------------------------------
    #: issue cost of one warp-level memory request (address gen + MIO queue)
    cycles_per_request: float = 1.0
    #: SM-side cost per 32B sector moved (L2/DRAM service, amortized)
    cycles_per_sector: float = 0.4
    #: one warp-wide arithmetic instruction
    cycles_per_instr: float = 0.4
    #: extra serialization per atomic memory operation (read-modify-write
    #: turnaround at the L2 atomic unit)
    cycles_per_atomic: float = 24.0
    #: additional contention multiplier applied to atomics that collide on
    #: the same address within a warp window
    atomic_contention_factor: float = 2.0
    #: device-wide L2 atomic-unit throughput (independent-address ops/cycle);
    #: the serialization bottleneck of scatter-style kernels (Observation I)
    atomic_ops_per_cycle: float = 96.0

    # ---- scheduling & launch costs ------------------------------------------
    #: hardware work-distributor cost to place one block on an SM
    block_schedule_cycles: float = 60.0
    #: host-side cost of one kernel launch (driver + runtime), seconds
    kernel_launch_seconds: float = 8e-6
    #: extra per-kernel host overhead when driven through a Python framework
    #: dispatcher (DGL-style); the paper measures this as "Runtime - GPU time"
    framework_dispatch_seconds: float = 60e-6

    #: latency-hiding: fraction of memory latency hidden per extra resident
    #: warp beyond the first (used for the stall / occupancy interplay)
    latency_hiding_per_warp: float = 0.94
    #: warp-instruction issue slots per SM per cycle (device-wide issue
    #: throughput bound = num_sms * issue_slots_per_sm)
    issue_slots_per_sm: float = 4.0
    #: achieved occupancy at which resident warps can saturate DRAM
    #: bandwidth (Little's-law knee)
    bw_occupancy_knee: float = 0.35

    def with_overrides(self, **kwargs) -> "GPUSpec":
        """Return a copy with the given constants replaced."""
        return replace(self, **kwargs)

    # ---- derived -----------------------------------------------------------
    @property
    def max_resident_warps(self) -> int:
        """Device-wide resident-warp ceiling."""
        return self.num_sms * self.max_warps_per_sm

    @property
    def sectors_per_line(self) -> int:
        return self.cache_line_bytes // self.sector_bytes


def scaled_spec(spec: "GPUSpec", scale: float) -> "GPUSpec":
    """Shrink the device together with a scaled-down dataset.

    When a dataset stand-in carries ``scale < 1`` of the original graph,
    shrinking the throughput-side resources (SMs, L2, bandwidth, atomic
    units) by the same factor preserves the work-to-machine ratios the
    paper's effects depend on — and makes the modeled milliseconds directly
    comparable to full-size measurements.  Host-side costs (kernel launch,
    framework dispatch) stay absolute, as they are on real hardware.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    if scale == 1.0:
        return spec
    return spec.with_overrides(
        num_sms=max(2, round(spec.num_sms * scale)),
        l2_bytes=max(64 * 1024, int(spec.l2_bytes * scale)),
        mem_bandwidth_bytes_per_s=spec.mem_bandwidth_bytes_per_s * scale,
        atomic_ops_per_cycle=max(2.0, spec.atomic_ops_per_cycle * scale),
    )


#: The paper's evaluation device.
V100 = GPUSpec()

#: A100-SXM4-40GB preset — for checking that the paper's conclusions carry
#: to a newer part (more SMs, much larger L2, HBM2e bandwidth, faster
#: atomics).  Structural limits per the A100 whitepaper; cost constants
#: inherit the V100 calibration.
A100 = GPUSpec(
    name="A100-SXM4-40GB",
    num_sms=108,
    registers_per_sm=65536,
    shared_mem_per_sm=164 * 1024,
    dram_bytes=40 * 1024**3,
    l2_bytes=40 * 1024**2,
    mem_bandwidth_bytes_per_s=1555e9,
    clock_hz=1.41e9,
    atomic_ops_per_cycle=160.0,
)
