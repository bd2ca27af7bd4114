"""The ExecutionPlan IR: what a lowered GNN pipeline *is*.

A plan is the compile-stage artifact of one (system, model, graph,
features, spec) cell: the ordered kernel list with each kernel's workload
or counter-model closure, the workload-balance choice, the fusion
structure, and one :class:`ComputeStep` naming the convolution the plan
computes.  The compute kernel, when the pipeline has one, is recorded
once: as the plan's single ``conv`` op (:attr:`ExecutionPlan.conv_op`).
Plans carry no timing — analysis and costing happen in
:mod:`repro.plan.analyzer` so they can be cached and re-dispatched
without re-lowering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..gpusim.config import GPUSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.scheduler import ScheduleResult
from ..lint.access import KernelAccess
from ..lint.effects import KernelEffects
from ..models.convspec import ConvWorkload
from ..obs.events import EventSink, get_event_sink, set_event_sink
from ..obs.tracer import span

__all__ = ["KernelOp", "ComputeStep", "ExecutionPlan", "PlanInfo", "plan_for_kernel"]

#: analyze closure signature for modeled (non-ConvKernel) ops
AnalyzeFn = Callable[[GPUSpec], tuple[KernelStats, ScheduleResult]]

#: one memoized analysis: the spec it ran for, its result, and the
#: (kind, fields) events it emitted
_Analysis = tuple[
    GPUSpec, KernelStats, ScheduleResult, tuple[tuple[str, dict[str, Any]], ...]
]


@dataclass(frozen=True)
class KernelOp:
    """One kernel launch of a lowered pipeline.

    Two kinds exist:

    * ``kind="conv"`` — a real :class:`~repro.kernels.base.ConvKernel`
      over a :class:`~repro.models.convspec.ConvWorkload`; analysis runs
      the kernel's vectorized counter model.
    * ``kind="modeled"`` — a counter-model closure (``analyze_fn``) for
      kernels that exist only as launches in the framework's pipeline
      (DGL's elementwise glue, finalize kernels, the unfused GAT stages).
    """

    name: str
    kind: str  # "conv" | "modeled"
    kernel: Any | None = None
    workload: ConvWorkload | None = None
    analyze_fn: AnalyzeFn | None = None
    #: workload-balance choice ("hybrid" / "hardware" / "static" /
    #: "neighbor-group" / "edge-centric" / None for streaming glue)
    balance: str | None = None
    #: whether this op fuses what the baseline runs as multiple launches
    fused: bool = False
    #: declared effect table (buffers read/written/atomically merged +
    #: launch envelope); conv ops auto-populate from the kernel, modeled
    #: ops must declare explicitly — the lint analyses consume this
    effects: KernelEffects | None = None
    #: declared symbolic access table (per-buffer lane/iter expressions;
    #: see :mod:`repro.lint.access`); auto-populated like ``effects`` —
    #: every effects-declared buffer must carry a pattern or ACC001 fires
    access: KernelAccess | None = None

    def __post_init__(self) -> None:
        if self.kind == "conv" and self.workload is not None:
            if self.effects is None:
                declare = getattr(self.kernel, "effects", None)
                if callable(declare):
                    object.__setattr__(self, "effects", declare(self.workload))
            if self.access is None:
                declare = getattr(self.kernel, "access_patterns", None)
                if callable(declare):
                    object.__setattr__(self, "access", declare(self.workload))

    def analyze(self, spec: GPUSpec) -> tuple[KernelStats, ScheduleResult]:
        """Produce this op's counters + schedule for ``spec``.

        Analysis is a pure function of (op, spec), so it runs once per
        spec object and the result is memoized on the op, the way
        :func:`repro.identity.owned_digest` keeps digests on their owner;
        a ``dataclasses.replace`` copy starts empty.  A hit still opens
        the ``kernel.analyze`` span, tagged ``memo="hit"`` (a miss
        ``"miss"``), and emits the events the analysis sent, so the
        installed event sink sees the same stream either way.
        """
        memo: list[_Analysis] = vars(self).setdefault("_analyses", [])
        done = next((a for a in memo if a[0] is spec), None)
        label = self.kernel.name if self.kind == "conv" else self.name
        with span(
            "kernel.analyze", kernel=label, memo="miss" if done is None else "hit"
        ) as sp:
            if done is None:
                recorder = EventSink()
                outer = set_event_sink(recorder)
                try:
                    stats, sched = self._compute(spec)
                finally:
                    set_event_sink(outer)
                stats.warp_cycles.setflags(write=False)
                events = tuple((e.pop("kind"), e) for e in recorder.events)
                done = (spec, stats, sched, events)
                memo.append(done)
            _, stats, sched, events = done
            if sp is not None:
                sp.set(num_units=sched.num_units, policy=sched.policy)
        sink = get_event_sink()
        if sink is not None:
            for kind, fields in events:
                sink.emit(kind, **fields)
        return stats, sched

    def _compute(self, spec: GPUSpec) -> tuple[KernelStats, ScheduleResult]:
        """Run the op's counter model (no memo)."""
        if self.kind == "conv":
            return self.kernel.analyze(self.workload, spec)
        if self.analyze_fn is None:
            raise ValueError(f"modeled op {self.name!r} has no analyze_fn")
        return self.analyze_fn(spec)


@dataclass(frozen=True)
class ComputeStep:
    """The convolution a plan computes (the execute stage's input).

    Every system computes the same function of its workload, the exact
    reference aggregation; kernels differ in how the work maps onto the
    GPU, not in what they compute.  ``output_perm`` optionally
    un-permutes the output back to the caller's vertex order
    (GNNAdvisor's reordering).
    """

    workload: ConvWorkload
    #: span label of the execution when the plan has no conv op
    label: str | None = None
    output_perm: np.ndarray | None = None


@dataclass(frozen=True)
class PlanInfo:
    """Light, cache-safe summary of a plan (attached to SystemResult)."""

    system: str
    model: str
    graph: str
    pipeline: str
    num_kernels: int
    op_names: tuple[str, ...]
    fingerprint: str | None = None
    #: True when the result came from a warm PlanCache entry
    cached: bool = False


@dataclass
class ExecutionPlan:
    """A lowered pipeline: ops + compute step + host-side cost metadata."""

    system: str
    model: str
    graph_name: str
    pipeline_name: str
    ops: list[KernelOp]
    compute: ComputeStep
    #: one-off modeled pre-processing charged to the pipeline (GNNAdvisor)
    preprocess_seconds: float = 0.0
    #: per-kernel framework dispatch cost (None = bare launches)
    dispatch_seconds: float | None = None
    #: content fingerprint (see :func:`repro.plan.cache.plan_fingerprint`);
    #: None when the plan was built outside ``GNNSystem.lower``/``run``
    fingerprint: str | None = None

    @property
    def num_kernels(self) -> int:
        return len(self.ops)

    @property
    def op_names(self) -> tuple[str, ...]:
        return tuple(op.name for op in self.ops)

    @property
    def conv_op(self) -> KernelOp | None:
        """The plan's compute kernel launch: its single ``conv`` op, or
        None when the pipeline has no conv op or more than one."""
        convs = [op for op in self.ops if op.kind == "conv"]
        return convs[0] if len(convs) == 1 else None

    def info(self, *, cached: bool = False) -> PlanInfo:
        return PlanInfo(
            system=self.system,
            model=self.model,
            graph=self.graph_name,
            pipeline=self.pipeline_name,
            num_kernels=self.num_kernels,
            op_names=self.op_names,
            fingerprint=self.fingerprint,
            cached=cached,
        )

    def describe(self) -> str:
        """Human-readable lowering (the ``repro plan`` subcommand body)."""
        head = (
            f"{self.system}/{self.model} on {self.graph_name}: "
            f"{self.num_kernels} kernel(s), pipeline {self.pipeline_name}"
        )
        if self.fingerprint:
            head += f", fingerprint {self.fingerprint[:16]}"
        lines = [head]
        for i, op in enumerate(self.ops):
            attrs = ["conv" if op.kind == "conv" else "modeled"]
            if op.balance:
                attrs.append(f"balance={op.balance}")
            if op.fused:
                attrs.append("fused")
            lines.append(f"  [{i}] {op.name} ({', '.join(attrs)})")
            if op.effects is not None:
                lines.append(f"        {op.effects.summary()}")
            if op.access is not None:
                lines.append(f"        access: {op.access.summary()}")
        if self.dispatch_seconds:
            lines.append(
                f"  + framework dispatch "
                f"{self.dispatch_seconds * 1e6:.0f} us per kernel"
            )
        if self.preprocess_seconds:
            lines.append(
                f"  + pre-processing "
                f"{self.preprocess_seconds * 1e3:.3f} ms (one-off)"
            )
        return "\n".join(lines)


def plan_for_kernel(
    kernel,
    workload: ConvWorkload,
    *,
    system: str = "kernel",
    model: str = "conv",
    pipeline_name: str | None = None,
    balance: str | None = None,
) -> ExecutionPlan:
    """Wrap a single ConvKernel launch as a one-op plan (multigpu shards).

    Raises ``ValueError`` when the kernel cannot execute the workload.
    """
    kernel.check_supports(workload)
    return ExecutionPlan(
        system=system,
        model=model,
        graph_name=workload.graph.name,
        pipeline_name=pipeline_name or f"{system}_{kernel.name}",
        ops=[
            KernelOp(
                name=kernel.name,
                kind="conv",
                kernel=kernel,
                workload=workload,
                balance=balance or getattr(kernel, "assignment", None),
            )
        ],
        compute=ComputeStep(workload=workload),
    )
