"""The shared analyze/cost stage: counters → schedule → modeled time.

One path turns a plan's ops into ``KernelStats``/``ScheduleResult``
pairs (:func:`analyze_plan`), times each with the
theoretical-occupancy-aware :func:`~repro.gpusim.costmodel.estimate_kernel`
(:func:`time_parts`), and assembles the
:class:`~repro.gpusim.costmodel.PipelineTiming` (:func:`cost_plan`, the
single source of truth for ``dispatch_seconds`` handling: the per-kernel
framework dispatch tax DGL-class runtimes pay).  :func:`model_plan`
composes the three from the plan alone; the run path, the optimizer's
profit metric and the multi-GPU shards all call it.
"""

from __future__ import annotations

from ..gpusim.config import GPUSpec
from ..gpusim.costmodel import (
    KernelTiming,
    PipelineTiming,
    estimate_kernel,
    estimate_pipeline,
)
from ..gpusim.kernel import KernelStats, PipelineStats
from ..gpusim.occupancy import theoretical_occupancy
from ..gpusim.scheduler import ScheduleResult
from .ir import ExecutionPlan

__all__ = ["analyze_plan", "time_parts", "cost_plan", "model_plan"]

#: a (counters, schedule) pair, the unit flowing between analyze and cost
Part = tuple[KernelStats, ScheduleResult]


def analyze_plan(
    plan: ExecutionPlan, spec: GPUSpec
) -> tuple[PipelineStats, list[Part]]:
    """Run every op's counter model and aggregate the pipeline stats."""
    parts = [op.analyze(spec) for op in plan.ops]
    pipeline = PipelineStats(
        name=plan.pipeline_name, preprocess_seconds=plan.preprocess_seconds
    )
    for stats, _sched in parts:
        pipeline.add(stats)
    return pipeline, parts


def time_parts(parts: list[Part], spec: GPUSpec) -> list[KernelTiming]:
    """Cost each (stats, schedule) pair under its theoretical occupancy."""
    timings: list[KernelTiming] = []
    for stats, sched in parts:
        occ = theoretical_occupancy(stats.launch, spec).theoretical
        timings.append(
            estimate_kernel(stats, sched, spec, theoretical_occupancy=occ)
        )
    return timings


def cost_plan(
    pipeline: PipelineStats,
    timings: list[KernelTiming],
    spec: GPUSpec,
    *,
    dispatch_seconds: float | None = None,
) -> PipelineTiming:
    """Assemble per-kernel timings into the pipeline total.

    ``dispatch_seconds`` is the system's per-kernel host dispatch cost;
    ``None`` means bare kernel launches (no framework loop between them).
    """
    if dispatch_seconds is not None:
        eff_spec = spec.with_overrides(
            framework_dispatch_seconds=dispatch_seconds
        )
        return estimate_pipeline(
            pipeline, timings, eff_spec, framework_dispatch=True
        )
    return estimate_pipeline(pipeline, timings, spec)


def model_plan(
    plan: ExecutionPlan, spec: GPUSpec
) -> tuple[PipelineStats, PipelineTiming]:
    """Analyze, time and cost ``plan`` on ``spec``, billing the plan's own
    per-kernel dispatch cost."""
    pipeline, parts = analyze_plan(plan, spec)
    timing = cost_plan(
        pipeline, time_parts(parts, spec), spec,
        dispatch_seconds=plan.dispatch_seconds,
    )
    return pipeline, timing
