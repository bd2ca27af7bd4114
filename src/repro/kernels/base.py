"""Kernel base class and shared counter helpers.

A kernel is a *mapping*, not new arithmetic: every kernel computes the
same convolution, :func:`~repro.models.convspec.reference_aggregate`,
which the plan executor runs once for every system.  What a kernel
contributes is how the work lands on the GPU:

* ``_mapping()`` — the level-1/level-2 schedule as a
  :class:`~repro.mp.derive.KernelMapping`; the declared effect and access
  tables are derived from it once, here.
* ``analyze(workload, spec)`` — vectorized counter model producing
  :class:`~repro.gpusim.kernel.KernelStats` and a schedule.
* ``trace(workload, sim)`` — replay the access pattern warp by warp
  through the micro-simulator (small graphs; validates ``analyze``).

Kernels are *feature-parallel in the lanes* (the paper's second level)
except :class:`~repro.kernels.pull_thread.PullThreadKernel`, which is the
uncoalesced thread-per-vertex anti-pattern of Table 2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..gpusim.config import V100, GPUSpec
from ..gpusim.costmodel import KernelTiming
from ..gpusim.kernel import KernelStats
from ..gpusim.microsim import AddressMap, MicroSim
from ..gpusim.scheduler import ScheduleResult
from ..lint.access import KernelAccess
from ..lint.effects import KernelEffects
from ..models.convspec import ConvWorkload
from ..mp.derive import KernelMapping, derive_access, derive_effects
from ..obs.tracer import span

__all__ = [
    "ConvKernel",
    "KernelResult",
    "feature_row_sectors",
    "feature_rounds",
    "index_span_sectors",
    "make_amap",
]


def feature_row_sectors(feat_dim: int, *, sector_bytes: int = 32) -> int:
    """Sectors one full float32 feature row occupies (``ceil(4F/32)``)."""
    if feat_dim <= 0:
        raise ValueError("feat_dim must be positive")
    return -(-4 * feat_dim // sector_bytes)


def feature_rounds(feat_dim: int, lanes: int = 32) -> int:
    """Chunks of ``lanes`` dimensions needed to cover a feature row."""
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    return -(-feat_dim // lanes)


def index_span_sectors(
    indptr: np.ndarray, *, itemsize: int = 4, base: int = 0, sector_bytes: int = 32
) -> np.ndarray:
    """Per-vertex sectors of the contiguous ``indices[start:end)`` span.

    This is the post-L1 (DRAM) footprint of streaming a vertex's edge list:
    sequential uniform loads re-hit the same sector for ``sector/itemsize``
    consecutive edges.
    """
    starts = base + itemsize * indptr[:-1]
    lengths = itemsize * np.diff(indptr)
    first = starts // sector_bytes
    last = (starts + np.maximum(lengths, 1) - 1) // sector_bytes
    return np.where(lengths > 0, last - first + 1, 0).astype(np.int64)


def make_amap(workload: ConvWorkload) -> AddressMap:
    """Standard device layout for a workload (shared by trace/analyze)."""
    g = workload.graph
    return AddressMap.create(g.num_vertices, g.num_edges, workload.feat_dim)


@dataclass
class KernelResult:
    """The modeled cost of one kernel launch."""

    stats: KernelStats
    schedule: ScheduleResult
    timing: KernelTiming


class ConvKernel(ABC):
    """Interface shared by all graph-convolution kernels."""

    name: str = "kernel"

    @abstractmethod
    def _mapping(self) -> KernelMapping:
        """The kernel's level-1/level-2 schedule as data."""

    @abstractmethod
    def analyze(
        self, workload: ConvWorkload, spec: GPUSpec = V100
    ) -> tuple[KernelStats, ScheduleResult]:
        """Vectorized counter model + schedule for the workload."""

    @abstractmethod
    def trace(self, workload: ConvWorkload, sim: MicroSim) -> None:
        """Replay the access pattern through the micro-simulator (small
        graphs); the counters land in ``sim``."""

    def effects(self, workload: ConvWorkload) -> KernelEffects:
        """Declared effect table for ``workload`` (buffers + launch
        envelope; see :mod:`repro.lint.effects`), derived from the
        mapping."""
        return derive_effects(self._mapping(), workload)

    def access_patterns(self, workload: ConvWorkload) -> KernelAccess:
        """Declared symbolic access table for ``workload`` (per-buffer
        lane/iter expressions; see :mod:`repro.lint.access`), derived from
        the mapping."""
        return derive_access(self._mapping(), workload)

    def supports(self, workload: ConvWorkload) -> bool:
        """Whether the kernel can execute the workload (attention etc.)."""
        return workload.attention is None

    def check_supports(self, workload: ConvWorkload) -> None:
        """Refuse a workload the kernel cannot execute: costing it would
        model a computation the kernel does not perform."""
        if not self.supports(workload):
            raise ValueError(
                f"kernel {self.name!r} cannot execute this workload "
                f"(reduce={workload.reduce!r}, "
                f"attention={workload.attention is not None})"
            )

    def execute(self, workload: ConvWorkload, spec: GPUSpec = V100) -> KernelResult:
        """Analyze + cost-model one launch in one call."""
        self.check_supports(workload)
        with span("kernel.analyze", kernel=self.name) as sp:
            stats, schedule = self.analyze(workload, spec)
            if sp is not None:
                sp.set(num_units=schedule.num_units, policy=schedule.policy)
        with span("kernel.timing", kernel=self.name) as sp:
            from ..plan import time_parts

            timing = time_parts([(stats, schedule)], spec)[0]
            if sp is not None:
                sp.add_modeled(timing.gpu_seconds)
        return KernelResult(stats=stats, schedule=schedule, timing=timing)
