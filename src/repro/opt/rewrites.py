"""The concrete optimizer passes over the ExecutionPlan IR.

Four rewrite families, in the order the default pipeline runs them:

* :class:`DeadIntermediateElimination` — delete modeled ops whose only
  outputs are ``tmp:*`` transients no other op reads (DGL's ``csr_check``
  / ``fill`` launches).  Legality comes straight from the effect tables:
  a buffer is eliminable iff it is transient, written exclusively (no
  atomic merge), and absent from every other op's read set.
* :class:`ElementwiseFusion` — merge adjacent producer/consumer pairs of
  streaming elementwise launches whose only link is a single transient.
  The fused op keeps the intermediate in registers: its counter model
  drops the producer's stores and the consumer's re-loads of that buffer
  and stops materializing its workspace.
* :class:`WorkloadMappingSelection` — re-bind the plan's compute kernel
  across the level-1 mapping space the paper sweeps by hand (warp-per-
  vertex TLPGNN variants, thread-per-vertex, CTA-per-vertex, warp-per-
  edge-chunk, edge-centric atomics), scoring each full plan with the
  shared cost model.  Safe because a plan's output is the shared
  reference aggregation of its compute step, whatever kernel its conv op
  launches.
* :class:`LaunchTuning` — grid search over the surviving TLPGNN kernel's
  launch geometry: warps-per-block (thread count), ``step`` (software-
  pool chunk), and ``group_size`` (feature tiling — Figure 11's knob).
* :class:`ApplyTunedKnobs` — replay a persisted tuner decision (a knob
  dict from the :class:`~repro.opt.tuner.TunedPlanStore`) without
  searching; the warm-deploy fast path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace
from typing import Any

import numpy as np

from ..gpusim.config import GPUSpec
from ..gpusim.kernel import KernelStats, LaunchConfig
from ..gpusim.scheduler import ScheduleResult
from ..kernels import (
    EdgeCentricKernel,
    EdgeParallelWarpKernel,
    PullCTAKernel,
    PullThreadKernel,
    TLPGNNKernel,
)
from ..lint.access import KernelAccess
from ..lint.effects import LaunchEnvelope, effect_table, is_transient
from ..plan.ir import ExecutionPlan, KernelOp
from .passes import PassContext, PlanPass, modeled_runtime_s

__all__ = [
    "DeadIntermediateElimination",
    "ElementwiseFusion",
    "WorkloadMappingSelection",
    "LaunchTuning",
    "ApplyTunedKnobs",
    "kernel_from_knobs",
    "knobs_for_kernel",
]


# ----------------------------------------------------------------------
# knob dict <-> ConvKernel (the tuner's persistence vocabulary)
# ----------------------------------------------------------------------
def knobs_for_kernel(kernel: Any) -> dict[str, Any] | None:
    """Serializable knob dict identifying a compute kernel configuration."""
    if isinstance(kernel, TLPGNNKernel):
        return {
            "kernel": "tlpgnn",
            "assignment": kernel.assignment,
            "group_size": kernel.group_size,
            "register_cache": kernel.register_cache,
            "warps_per_block": kernel.warps_per_block,
            "step": kernel.step,
        }
    if isinstance(kernel, PullCTAKernel):
        return {"kernel": "pull_cta", "warps_per_block": kernel.warps_per_block}
    if isinstance(kernel, PullThreadKernel):
        return {"kernel": "pull_thread"}
    if isinstance(kernel, EdgeParallelWarpKernel):
        return {"kernel": "edge_parallel_warp"}
    if isinstance(kernel, EdgeCentricKernel):
        return {"kernel": "edge_centric"}
    return None


def kernel_from_knobs(knobs: Mapping[str, Any], *, dataset: Any = None) -> Any:
    """Rebuild a ConvKernel from a persisted knob dict (None = unknown)."""
    kind = knobs.get("kernel")
    if kind == "tlpgnn":
        hints: dict[str, Any] = {}
        if dataset is not None:
            hints = {
                "hint_num_vertices": dataset.full_num_vertices,
                "hint_avg_degree": dataset.full_avg_degree,
            }
        return TLPGNNKernel(
            assignment=knobs.get("assignment", "hybrid"),
            group_size=knobs.get("group_size", 32),
            register_cache=knobs.get("register_cache", True),
            warps_per_block=knobs.get("warps_per_block", 4),
            step=knobs.get("step", 8),
            **hints,
        )
    if kind == "pull_cta":
        return PullCTAKernel(warps_per_block=knobs.get("warps_per_block", 4))
    if kind == "pull_thread":
        return PullThreadKernel()
    if kind == "edge_parallel_warp":
        return EdgeParallelWarpKernel()
    if kind == "edge_centric":
        return EdgeCentricKernel()
    return None


def _conv_index(plan: ExecutionPlan) -> int | None:
    """Index of the plan's compute kernel launch, its single conv op.

    Mapping passes only apply to plans with exactly one conv op — the
    TLPGNN-shaped plans.  Multi-conv or conv-free pipelines are left
    alone.
    """
    conv = plan.conv_op
    if conv is None:
        return None
    return next(i for i, op in enumerate(plan.ops) if op is conv)


def _with_kernel(plan: ExecutionPlan, idx: int, kernel: Any) -> ExecutionPlan:
    """Rebind the conv op at ``idx`` to ``kernel``."""
    old = plan.ops[idx]
    new_op = KernelOp(
        name=kernel.name,
        kind="conv",
        kernel=kernel,
        workload=old.workload,
        balance=getattr(kernel, "assignment", None),
        fused=old.fused,
    )
    ops = list(plan.ops)
    ops[idx] = new_op
    return replace(plan, ops=ops)


# ----------------------------------------------------------------------
# dead-intermediate elimination
# ----------------------------------------------------------------------
class DeadIntermediateElimination(PlanPass):
    """Remove modeled ops whose only effect is writing dead transients.

    Legality comes from the whole-plan liveness analysis
    (:func:`repro.lint.dataflow.dead_transients`): a transient is dead
    when its live range ends at its own definition — nothing consumes it
    through an effect read, an atomic RMW, a read-role access pattern,
    or as the index buffer behind an indirection.  A launch is removable
    when every buffer it mutates is an exclusive plain write to a dead
    transient.

    Fixpoint: removing one dead launch can orphan another's output, so
    liveness is recomputed over the shrunken plan until nothing is dead.
    Conservative by construction — an op survives if it has no effect
    table, performs atomics, or writes any non-transient buffer.
    """

    name = "dead-intermediate-elimination"

    def apply(
        self, plan: ExecutionPlan, ctx: PassContext
    ) -> ExecutionPlan | None:
        from ..lint.dataflow import dead_transients

        current = plan
        ops = list(plan.ops)
        changed = False
        while True:
            dead_bufs = dead_transients(current)
            dead = None
            for i, op in enumerate(ops):
                if op.kind != "modeled" or op.effects is None:
                    continue
                written = [
                    b for b in op.effects.buffers if b.mode != "read"
                ]
                if not written:
                    continue
                if all(
                    b.mode == "write"
                    and is_transient(b.buffer)
                    and b.buffer in dead_bufs
                    for b in written
                ):
                    dead = i
                    break
            if dead is None:
                break
            del ops[dead]
            changed = True
            current = replace(current, ops=list(ops))
        if not changed:
            return None
        return replace(plan, ops=ops)


# ----------------------------------------------------------------------
# elementwise fusion
# ----------------------------------------------------------------------
def _merge_launch(a: LaunchConfig, b: LaunchConfig) -> LaunchConfig:
    return LaunchConfig(
        num_blocks=max(a.num_blocks, b.num_blocks),
        threads_per_block=max(a.threads_per_block, b.threads_per_block),
        regs_per_thread=max(a.regs_per_thread, b.regs_per_thread),
        shared_mem_per_block=max(
            a.shared_mem_per_block, b.shared_mem_per_block
        ),
    )


def _merge_stats(
    name: str, sa: KernelStats, sb: KernelStats
) -> KernelStats:
    """Counters of the fused launch: the transient stays in registers.

    Every store of the producer targets the fused-away buffer (that is
    the legality condition), so its stores vanish outright; the
    consumer's re-loads of that buffer vanish up to what the producer
    actually wrote.  Work (instructions, warp cycles) is conserved.
    """
    saved_load = min(sb.load_sectors, sa.store_sectors)
    saved_l1_load = min(sb.l1_load_sectors, sa.l1_store_sectors)
    saved_load_req = min(sb.load_requests, sa.store_requests)
    load_sectors = sa.load_sectors + sb.load_sectors - saved_load
    load_requests = sa.load_requests + sb.load_requests - saved_load_req
    if load_sectors > 0:
        load_requests = max(load_requests, 1)
    return KernelStats(
        name=name,
        launch=_merge_launch(sa.launch, sb.launch),
        load_sectors=load_sectors,
        store_sectors=sb.store_sectors,
        l1_load_sectors=max(
            sa.l1_load_sectors + sb.l1_load_sectors - saved_l1_load, 0
        ),
        l1_store_sectors=sb.l1_store_sectors,
        load_requests=load_requests,
        store_requests=sb.store_requests,
        instructions=sa.instructions + sb.instructions,
        warp_cycles=np.concatenate([sa.warp_cycles, sb.warp_cycles]),
        divergent_lanes=sa.divergent_lanes + sb.divergent_lanes,
        # the producer's workspace WAS the transient — never materialized
        workspace_bytes=sb.workspace_bytes,
    )


def _merge_sched(a: ScheduleResult, b: ScheduleResult) -> ScheduleResult:
    return ScheduleResult(
        makespan_cycles=a.makespan_cycles + b.makespan_cycles,
        busy_warp_cycles=a.busy_warp_cycles + b.busy_warp_cycles,
        overhead_cycles=a.overhead_cycles + b.overhead_cycles,
        num_units=max(a.num_units, b.num_units),
        policy="fused",
    )


def _merge_access(
    a: KernelAccess, b: KernelAccess, t: str
) -> KernelAccess:
    patterns = tuple(p for p in a.patterns if p.buffer != t) + tuple(
        p for p in b.patterns if p.buffer != t
    )
    shapes = {k: v for k, v in {**a.shapes, **b.shapes}.items() if k != t}
    ranges = {
        k: v for k, v in {**a.value_ranges, **b.value_ranges}.items() if k != t
    }
    return KernelAccess(
        patterns=patterns,
        shapes=shapes,
        unit_rows=max(a.unit_rows, b.unit_rows),
        value_ranges=ranges,
    )


class ElementwiseFusion(PlanPass):
    """Fuse adjacent modeled launches linked by exactly one transient.

    Legality (all from the declared effect tables):

    * both ops are ``modeled`` with effect + access tables and no atomics;
    * the producer writes exactly one buffer, a ``tmp:*`` transient;
    * the consumer reads it, and no *other* op in the plan reads or
      writes it (including as a gather index buffer);
    * neither op consumes host randomness.

    The fused op is one launch: the profit is a whole dispatch + launch
    round-trip plus the eliminated store/load traffic of the transient.
    Fixpoint over adjacent pairs, so a chain of k elementwise launches
    collapses into one.
    """

    name = "elementwise-fusion"

    def apply(
        self, plan: ExecutionPlan, ctx: PassContext
    ) -> ExecutionPlan | None:
        ops = list(plan.ops)
        changed = False
        i = 0
        while i < len(ops) - 1:
            fused = self._try_fuse(ops, i)
            if fused is not None:
                ops[i : i + 2] = [fused]
                changed = True
                i = max(i - 1, 0)  # the fused op may chain with its producer
            else:
                i += 1
        if not changed:
            return None
        return replace(plan, ops=ops)

    @staticmethod
    def _try_fuse(ops: list[KernelOp], i: int) -> KernelOp | None:
        a, b = ops[i], ops[i + 1]
        ae, aa = a.effects, a.access
        be, ba = b.effects, b.access
        if (
            a.kind != "modeled"
            or b.kind != "modeled"
            or a.analyze_fn is None
            or b.analyze_fn is None
            or ae is None
            or be is None
            or aa is None
            or ba is None
            or ae.atomics
            or be.atomics
            or ae.reads_rng
            or be.reads_rng
        ):
            return None
        if len(ae.writes) != 1:
            return None
        t = ae.writes[0]
        if not is_transient(t) or t in ae.reads:
            return None
        # the producer must write t unit-owned/streamed — an indirect
        # (scattered) write breaks the unit alignment register fusion needs
        if any(
            p.buffer == t and p.row == "indirect" for p in aa.patterns
        ):
            return None
        if t not in be.reads or t in be.writes:
            return None
        # the consumer must read t *directly* (its own rows, streamed):
        # a gathered/indirect read of t needs other units' producer rows,
        # which cannot stay in registers across the fusion boundary; nor
        # may t back an indirection as the index buffer itself
        for p in ba.patterns:
            if getattr(p, "via", None) == t:
                return None
            if p.buffer == t and p.row == "indirect":
                return None
        for j, other in enumerate(ops):
            if j in (i, i + 1) or other.effects is None:
                continue
            eff = other.effects
            if t in eff.reads or t in eff.writes or t in eff.atomics:
                return None
            if other.access is not None and any(
                getattr(p, "via", None) == t for p in other.access.patterns
            ):
                return None
        name = f"{a.name}+{b.name}"

        def analyze(
            spec: GPUSpec,
            _a: KernelOp = a,
            _b: KernelOp = b,
            _name: str = name,
        ) -> tuple[KernelStats, ScheduleResult]:
            sa, scha = _a.analyze(spec)
            sb, schb = _b.analyze(spec)
            return _merge_stats(_name, sa, sb), _merge_sched(scha, schb)

        reads = tuple(
            dict.fromkeys(
                list(ae.reads) + [r for r in be.reads if r != t]
            )
        )
        ea, eb = ae.launch, be.launch
        if ea is not None and eb is not None:
            launch = LaunchEnvelope(
                threads_per_block=max(
                    ea.threads_per_block, eb.threads_per_block
                ),
                regs_per_thread=max(ea.regs_per_thread, eb.regs_per_thread),
                shared_mem_per_block=max(
                    ea.shared_mem_per_block, eb.shared_mem_per_block
                ),
            )
        else:
            launch = ea or eb
        return KernelOp(
            name=name,
            kind="modeled",
            analyze_fn=analyze,
            balance=b.balance or a.balance,
            fused=True,
            effects=effect_table(
                reads=reads, writes=be.writes, launch=launch
            ),
            access=_merge_access(aa, ba, t),
        )


# ----------------------------------------------------------------------
# workload-mapping selection (level-1 parallelism)
# ----------------------------------------------------------------------
def _tlpgnn_hints(ctx: PassContext) -> dict[str, Any]:
    if ctx.dataset is None:
        return {}
    return {
        "hint_num_vertices": ctx.dataset.full_num_vertices,
        "hint_avg_degree": ctx.dataset.full_avg_degree,
    }


def mapping_candidates(workload: Any, ctx: PassContext) -> list[Any]:
    """The level-1 mapping space, filtered by workload support.

    NeighborGroupKernel is deliberately absent: it needs the host-side
    group table GNNAdvisor's lowering builds, so it is not a drop-in
    rebinding of an already-lowered plan.
    """
    hints = _tlpgnn_hints(ctx)
    cands = [
        TLPGNNKernel(assignment="hybrid", **hints),
        TLPGNNKernel(assignment="hardware"),
        PullCTAKernel(warps_per_block=4),
        PullCTAKernel(warps_per_block=8),
        PullThreadKernel(),
        EdgeParallelWarpKernel(),
        EdgeCentricKernel(),
    ]
    return [k for k in cands if k.supports(workload)]


class WorkloadMappingSelection(PlanPass):
    """Pick the cheapest level-1 mapping for the plan's compute kernel."""

    name = "workload-mapping"

    def apply(
        self, plan: ExecutionPlan, ctx: PassContext
    ) -> ExecutionPlan | None:
        idx = _conv_index(plan)
        if idx is None:
            return None
        workload = plan.ops[idx].workload
        current = plan.ops[idx].kernel
        best_plan: ExecutionPlan | None = None
        best_ms = modeled_runtime_s(plan, ctx.spec)
        for kernel in mapping_candidates(workload, ctx)[: max(ctx.budget, 1)]:
            if knobs_for_kernel(kernel) == knobs_for_kernel(current):
                continue
            cand = _with_kernel(plan, idx, kernel)
            ms = modeled_runtime_s(cand, ctx.spec)
            if ms < best_ms:  # strict: ties keep the incumbent mapping
                best_plan, best_ms = cand, ms
        return best_plan


# ----------------------------------------------------------------------
# launch tuning (thread count + feature tiling)
# ----------------------------------------------------------------------
#: the launch-geometry grid the paper sweeps in Figures 10-12
WARPS_PER_BLOCK_GRID = (2, 4, 8)
STEP_GRID = (4, 8, 16)
GROUP_SIZE_GRID = (8, 16, 32)


def launch_grid(kernel: TLPGNNKernel) -> list[TLPGNNKernel]:
    """All launch-geometry variants of one TLPGNN kernel, its config first."""
    base: dict[str, Any] = dict(
        assignment=kernel.assignment,
        register_cache=kernel.register_cache,
        hint_num_vertices=kernel.hint_num_vertices,
        hint_avg_degree=kernel.hint_avg_degree,
    )
    variants = [kernel]
    for wpb in WARPS_PER_BLOCK_GRID:
        for step in STEP_GRID:
            for group in GROUP_SIZE_GRID:
                if (wpb, step, group) == (
                    kernel.warps_per_block,
                    kernel.step,
                    kernel.group_size,
                ):
                    continue
                variants.append(
                    TLPGNNKernel(
                        warps_per_block=wpb,
                        step=step,
                        group_size=group,
                        **base,
                    )
                )
    return variants


class LaunchTuning(PlanPass):
    """Grid-search the TLPGNN launch geometry under the cost model.

    Only the compute kernel's geometry moves; the assignment policy and
    register-cache choice (semantic knobs the mapping pass owns) stay
    fixed.  With a budget below the grid size, a seeded deterministic
    subsample is scored — the incumbent configuration always included.
    """

    name = "launch-tuning"

    def apply(
        self, plan: ExecutionPlan, ctx: PassContext
    ) -> ExecutionPlan | None:
        idx = _conv_index(plan)
        incumbent = None if idx is None else plan.ops[idx].kernel
        if idx is None or not isinstance(incumbent, TLPGNNKernel):
            return None
        # the incumbent geometry is variants[0] and is already scored as
        # `plan` itself, so only the rest consume search budget
        rest = launch_grid(incumbent)[1:]
        if len(rest) + 1 > ctx.budget:
            order = np.random.default_rng(ctx.seed).permutation(len(rest))
            rest = [rest[int(j)] for j in order[: max(ctx.budget - 1, 0)]]
        best_plan: ExecutionPlan | None = None
        best_ms = modeled_runtime_s(plan, ctx.spec)
        for kernel in rest:
            cand = _with_kernel(plan, idx, kernel)
            ms = modeled_runtime_s(cand, ctx.spec)
            if ms < best_ms:  # strict: ties keep the incumbent geometry
                best_plan, best_ms = cand, ms
        return best_plan


# ----------------------------------------------------------------------
# tuned-knob replay
# ----------------------------------------------------------------------
class ApplyTunedKnobs(PlanPass):
    """Rebind the compute kernel to a persisted tuner decision.

    The warm path: a ``repro tune`` run recorded the winning knob dict in
    the :class:`~repro.opt.tuner.TunedPlanStore`; this pass replays it
    with zero search.  The pipeline's profit gate still applies, so a
    stale store entry that has become slower than the default lowering is
    skipped rather than trusted.
    """

    name = "apply-tuned-knobs"

    def apply(
        self, plan: ExecutionPlan, ctx: PassContext
    ) -> ExecutionPlan | None:
        if not ctx.tuned:
            return None
        idx = _conv_index(plan)
        if idx is None:
            return None
        kernel = kernel_from_knobs(ctx.tuned, dataset=ctx.dataset)
        if kernel is None or not kernel.supports(plan.ops[idx].workload):
            return None
        if knobs_for_kernel(plan.ops[idx].kernel) == knobs_for_kernel(kernel):
            return None
        return _with_kernel(plan, idx, kernel)
