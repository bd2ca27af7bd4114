"""GPU execution model: hardware spec, memory/coalescing math, occupancy,
block/pool scheduling, atomics, cost model, profiler, and an exact
micro-simulator used to validate the analytical counters."""

from .atomics import (
    atomic_serialization_cycles,
    expected_warp_conflicts,
    scatter_collision_rate,
)
from .config import A100, V100, GPUSpec, scaled_spec
from .costmodel import (
    KernelTiming,
    PipelineTiming,
    estimate_kernel,
    estimate_pipeline,
    stream_demands,
)
from .kernel import KernelStats, LaunchConfig, PipelineStats
from .memory import (
    cached_dram_sectors,
    SectorCache,
    contiguous_warp_sectors,
    scattered_rows_sectors,
    sectors_for_addresses,
    sectors_for_span,
    strided_column_sectors,
)
from .microsim import AddressMap, MicroSim
from .occupancy import OccupancyReport, achieved_occupancy, theoretical_occupancy
from .profiler import ProfileReport
from .roofline import RooflinePoint, machine_balance, roofline
from .scheduler import (
    Placement,
    ScheduleResult,
    block_slots,
    greedy_makespan,
    hardware_schedule,
    place,
    software_pool_schedule,
    static_schedule,
)
from .streams import MultiStreamSimulator, StreamCompletion, StreamKernel
from .warpcost import warp_cycles

__all__ = [
    "GPUSpec",
    "V100",
    "scaled_spec",
    "A100",
    "LaunchConfig",
    "KernelStats",
    "PipelineStats",
    "KernelTiming",
    "PipelineTiming",
    "estimate_kernel",
    "estimate_pipeline",
    "stream_demands",
    "StreamKernel",
    "StreamCompletion",
    "MultiStreamSimulator",
    "OccupancyReport",
    "theoretical_occupancy",
    "achieved_occupancy",
    "ScheduleResult",
    "Placement",
    "place",
    "block_slots",
    "greedy_makespan",
    "hardware_schedule",
    "software_pool_schedule",
    "static_schedule",
    "sectors_for_span",
    "sectors_for_addresses",
    "contiguous_warp_sectors",
    "scattered_rows_sectors",
    "strided_column_sectors",
    "SectorCache",
    "cached_dram_sectors",
    "AddressMap",
    "MicroSim",
    "ProfileReport",
    "RooflinePoint",
    "roofline",
    "machine_balance",
    "scatter_collision_rate",
    "atomic_serialization_cycles",
    "expected_warp_conflicts",
    "warp_cycles",
]
