"""Roofline classification of modeled kernels.

Answers "what is this kernel limited by?" from the same quantities the cost
model uses: arithmetic intensity vs the machine balance point, plus the
atomic-unit and issue-throughput ceilings.  The examples and the ablation
benches use this to explain *why* a configuration wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import GPUSpec
from .costmodel import KernelTiming
from .kernel import KernelStats

__all__ = ["RooflinePoint", "roofline"]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position against the device's ceilings."""

    name: str
    #: warp-instruction lane-ops per DRAM byte
    arithmetic_intensity: float
    #: which ceiling binds: "bandwidth" | "compute" | "atomic" | "latency"
    bound_by: str
    #: fraction of the binding ceiling actually achieved
    ceiling_utilization: float
    gpu_seconds: float

    def describe(self) -> str:
        return (
            f"{self.name}: {self.bound_by}-bound "
            f"(AI={self.arithmetic_intensity:.2f} lane-ops/B, "
            f"{100 * self.ceiling_utilization:.0f}% of ceiling, "
            f"{self.gpu_seconds * 1e3:.3f} ms)"
        )


def roofline(stats: KernelStats, timing: KernelTiming, spec: GPUSpec) -> RooflinePoint:
    """Place one analyzed kernel on the roofline."""
    lane_ops = stats.instructions * spec.threads_per_warp
    ai = lane_ops / max(stats.total_bytes, 1)

    terms = {
        "bandwidth": timing.bandwidth_seconds,
        "atomic": timing.atomic_seconds,
        "latency": timing.sm_seconds,  # per-warp serial chains / imbalance
    }
    compute_seconds = lane_ops / (
        spec.num_sms
        * spec.issue_slots_per_sm
        * spec.threads_per_warp
        * spec.clock_hz
    )
    terms["compute"] = compute_seconds
    bound_by = max(terms, key=terms.get)
    # how close the kernel runs to the ceiling that binds it
    util = terms[bound_by] / timing.gpu_seconds if timing.gpu_seconds > 0 else 0.0
    return RooflinePoint(
        name=stats.name,
        arithmetic_intensity=float(ai),
        bound_by=bound_by,
        ceiling_utilization=float(min(util, 1.0)),
        gpu_seconds=timing.gpu_seconds,
    )
