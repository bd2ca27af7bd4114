"""Kernel launch descriptions and hardware-counter containers.

A :class:`KernelStats` is what every kernel's ``analyze()`` produces: the
set of Nsight-style counters the paper profiles (memory load traffic,
atomic store traffic, sector-per-request, warp work distribution, ...).
:class:`PipelineStats` aggregates a multi-kernel pipeline the way the paper
reports DGL's 18-kernel GAT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LaunchConfig", "KernelStats", "PipelineStats"]


@dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry of one kernel launch."""

    num_blocks: int
    threads_per_block: int
    regs_per_thread: int = 32
    shared_mem_per_block: int = 0

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")
        if not 1 <= self.regs_per_thread <= 255:
            raise ValueError("regs_per_thread must be in [1, 255]")

    @property
    def num_threads(self) -> int:
        return self.num_blocks * self.threads_per_block

    def warps_per_block(self, threads_per_warp: int = 32) -> int:
        return -(-self.threads_per_block // threads_per_warp)

    def num_warps(self, threads_per_warp: int = 32) -> int:
        return self.num_blocks * self.warps_per_block(threads_per_warp)


@dataclass(frozen=True)
class KernelStats:
    """Modeled hardware counters of one kernel launch.

    All traffic counters are in units of 32-byte *sectors* except the
    ``*_bytes`` helpers.  ``warp_cycles`` carries the per-warp serial cost in
    cycles — the scheduler turns it into a makespan; everything else is a
    device-wide aggregate.

    Frozen: an op's analysis memo and the plan cache hand one stats object
    to many callers.  A memoized analysis also marks ``warp_cycles``
    read-only; derive changed counters with ``dataclasses.replace``.
    """

    name: str
    launch: LaunchConfig

    # DRAM memory traffic (sector counts, post-cache — what "GB moved" means)
    load_sectors: int = 0
    store_sectors: int = 0
    atomic_sectors: int = 0

    # L1TEX-level sector counts (pre-cache — what sector/request measures).
    # When left at 0 they default to the DRAM counts.
    l1_load_sectors: int = 0
    l1_store_sectors: int = 0
    l1_atomic_sectors: int = 0

    # warp-level request counts (for sector-per-request)
    load_requests: int = 0
    store_requests: int = 0
    atomic_requests: int = 0

    # number of atomic operations issued (serialization term)
    atomic_ops: int = 0
    #: fraction of atomic ops expected to collide on a hot address
    atomic_collision_rate: float = 0.0

    # warp-wide arithmetic instructions (device aggregate)
    instructions: int = 0

    #: per-scheduled-unit serial cost in cycles.  For hardware assignment the
    #: unit is one warp's whole workload; for the software pool it is one
    #: chunk.  Shape (n_units,), float64.
    warp_cycles: np.ndarray = field(default_factory=lambda: np.zeros(0))

    #: branch-divergent warp-iterations (idle-lane work), for SM utilization
    divergent_lanes: int = 0

    #: bytes of intermediate global-memory workspace this kernel materializes
    workspace_bytes: int = 0

    sector_bytes: int = 32

    # ------------------------------------------------------------------
    @property
    def total_sectors(self) -> int:
        return self.load_sectors + self.store_sectors + self.atomic_sectors

    @property
    def load_bytes(self) -> int:
        return self.load_sectors * self.sector_bytes

    @property
    def store_bytes(self) -> int:
        return self.store_sectors * self.sector_bytes

    @property
    def atomic_bytes(self) -> int:
        return self.atomic_sectors * self.sector_bytes

    @property
    def total_bytes(self) -> int:
        return self.total_sectors * self.sector_bytes

    @property
    def total_requests(self) -> int:
        return self.load_requests + self.store_requests + self.atomic_requests

    @property
    def l1_total_sectors(self) -> int:
        """Pre-cache sector count; defaults to DRAM counts when not set."""
        l1 = self.l1_load_sectors + self.l1_store_sectors + self.l1_atomic_sectors
        return l1 if l1 > 0 else self.total_sectors

    @property
    def sectors_per_request(self) -> float:
        """Nsight's "sector/req" — avg L1TEX sectors per warp-level request."""
        req = self.total_requests
        return self.l1_total_sectors / req if req else 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Internal consistency checks.  Construction runs them, so every
        instance (a ``dataclasses.replace`` copy included) has passed."""
        for f in (
            "load_sectors",
            "store_sectors",
            "atomic_sectors",
            "l1_load_sectors",
            "l1_store_sectors",
            "l1_atomic_sectors",
            "load_requests",
            "store_requests",
            "atomic_requests",
            "atomic_ops",
            "instructions",
            "divergent_lanes",
            "workspace_bytes",
        ):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")
        if self.load_requests == 0 and self.load_sectors > 0:
            raise ValueError("load sectors without load requests")
        if self.store_requests == 0 and self.store_sectors > 0:
            raise ValueError("store sectors without store requests")
        if self.atomic_requests == 0 and self.atomic_sectors > 0:
            raise ValueError("atomic sectors without atomic requests")
        if not 0.0 <= self.atomic_collision_rate <= 1.0:
            raise ValueError("atomic_collision_rate must be in [0,1]")
        if np.any(self.warp_cycles < 0):
            raise ValueError("warp_cycles must be non-negative")


@dataclass
class PipelineStats:
    """Counters of a multi-kernel pipeline (e.g. DGL's 18-kernel GAT)."""

    name: str
    kernels: list[KernelStats] = field(default_factory=list)
    #: one-off pre-processing time (GNNAdvisor reordering etc.), seconds
    preprocess_seconds: float = 0.0

    def add(self, stats: KernelStats) -> None:
        self.kernels.append(stats)

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def total_bytes(self) -> int:
        return sum(k.total_bytes for k in self.kernels)

    @property
    def load_bytes(self) -> int:
        return sum(k.load_bytes for k in self.kernels)

    @property
    def atomic_bytes(self) -> int:
        return sum(k.atomic_bytes for k in self.kernels)

    @property
    def workspace_bytes(self) -> int:
        """Peak intermediate global-memory footprint of the pipeline."""
        return max((k.workspace_bytes for k in self.kernels), default=0)

    @property
    def total_workspace_bytes(self) -> int:
        """Sum of all intermediates — the "global mem usage" Table 3 reports."""
        return sum(k.workspace_bytes for k in self.kernels)
