"""Pass framework: legality-checked, profit-guided plan rewrites.

A :class:`PlanPass` is one rewrite rule over the
:class:`~repro.plan.ExecutionPlan` IR.  Passes never mutate their input;
they return a rewritten plan (or ``None`` when they do not apply).  The
:class:`PassPipeline` drives them with two invariants the optimizer
never relaxes:

* **Legality** — every accepted rewrite must re-lint clean: the full
  :func:`repro.lint.lint_plan` battery runs on the rewritten plan and the
  pipeline *raises* :class:`IllegalRewriteError` (it does not silently
  drop the rewrite) if the transformation introduced any ERROR-severity
  finding that the input plan did not already carry.  The effect tables
  every op declares (reads/writes/atomics over named buffers) are the
  dependence information the individual passes reason from; the re-lint
  is the independent check that their reasoning was sound.
* **Profit** — every accepted rewrite must not regress the shared cost
  model: :func:`modeled_runtime_s` (the same
  :func:`~repro.plan.analyzer.model_plan` composition
  ``GNNSystem.profile`` bills with)
  scores the plan before and after, and unprofitable rewrites are
  skipped (recorded, not raised — a pass that found nothing better is
  normal).

Numeric safety is structural: passes only delete ops whose results are
never consumed, merge ops whose composition is associative by their
effect tables, or swap the compute kernel for another
:class:`~repro.kernels.base.ConvKernel` — and the executor computes every
plan's output as the shared reference aggregation of its compute step's
workload, which no pass touches, so the executed output is byte-identical
by construction.  The golden-cell tests assert exactly that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

from collections.abc import Iterable
from typing import Any

from ..gpusim.config import GPUSpec
from ..lint import Finding, lint_plan
from ..obs.tracer import span
from ..plan.analyzer import model_plan
from ..plan.ir import ExecutionPlan
from ..verify import decide_equivalence, normalize_plan

__all__ = [
    "OPT_LEVELS",
    "PassContext",
    "PassRecord",
    "PlanPass",
    "PassPipeline",
    "IllegalRewriteError",
    "modeled_runtime_s",
    "error_keys",
    "optimize_plan",
    "default_pipeline",
]

#: optimizer levels ``GNNSystem.profile``/``run(opt=...)`` accept, in
#: increasing aggressiveness: "off" = lower-and-run (the pre-optimizer behavior),
#: "safe" = rewrites that need no search (dead-intermediate elimination +
#: elementwise fusion), "search" = "safe" plus the kernel search over the
#: mapping and launch-geometry knob space (or the replay of its persisted
#: decision).
OPT_LEVELS = ("off", "safe", "search")


class IllegalRewriteError(RuntimeError):
    """A pass produced a plan the gates reject: new ERROR-severity lint
    findings, or a dataflow normal form diverging from the input's
    (EQ001/EQ002 — the translation-validation gate).

    Raised — never swallowed — so a buggy rewrite rule fails loudly at
    rewrite time instead of shipping a plan that computes something else.
    """

    def __init__(
        self,
        pass_name: str,
        plan: ExecutionPlan,
        findings: Iterable[Finding],
    ) -> None:
        self.pass_name = pass_name
        self.findings = list(findings)
        lines = "\n".join(f"  {f.render()}" for f in self.findings)
        super().__init__(
            f"pass {pass_name!r} introduced {len(self.findings)} new "
            f"error-severity finding(s) on {plan.system}/{plan.model}:\n{lines}"
        )


def modeled_runtime_s(plan: ExecutionPlan, spec: GPUSpec) -> float:
    """Score a plan with the shared cost model (seconds, end to end).

    This is the optimizer's single profit metric — identical to what
    ``GNNSystem.profile`` reports, including per-kernel dispatch overhead and
    one-off preprocessing, so "fewer launches" is rewarded exactly as
    much as the serving path would observe.
    """
    return model_plan(plan, spec)[1].total_seconds


def error_keys(plan: ExecutionPlan, spec: GPUSpec) -> set[tuple[str, str, str]]:
    """ERROR-severity finding keys of a plan's full lint report."""
    return {f.key() for f in lint_plan(plan, spec).errors}


@dataclass(frozen=True)
class PassContext:
    """Read-only environment a pass sees: device, dataset hints, budget."""

    spec: GPUSpec
    #: the Dataset being lowered (or None) — carries the full-size hints
    #: TLPGNN's hybrid heuristic and the tuner key use
    dataset: Any = None
    #: max candidate plans the kernel search scores, in all
    budget: int = 16
    #: seed of the kernel search's launch-grid subsample
    seed: int = 0
    #: tuned knob dict from the TunedPlanStore (drives ApplyTunedKnobs)
    tuned: dict[str, Any] | None = None


@dataclass(frozen=True)
class PassRecord:
    """What one pass did to one plan (the ``repro opt`` report rows)."""

    name: str
    applied: bool
    before_ms: float
    after_ms: float
    detail: str = ""

    def render(self) -> str:
        verdict = "applied" if self.applied else "skipped"
        line = (
            f"{self.name}: {verdict} "
            f"({self.before_ms:.3f} ms -> {self.after_ms:.3f} ms)"
        )
        return f"{line} [{self.detail}]" if self.detail else line


class PlanPass(ABC):
    """One rewrite rule. ``apply`` returns a new plan or None (no match)."""

    name: str = "pass"

    @abstractmethod
    def apply(
        self, plan: ExecutionPlan, ctx: PassContext
    ) -> ExecutionPlan | None:
        """Rewrite ``plan`` or return None when the pass does not apply."""


@dataclass
class PassPipeline:
    """Ordered passes + the legality/profit gates around each rewrite."""

    passes: list[PlanPass] = field(default_factory=list)

    def run(
        self,
        plan: ExecutionPlan,
        spec: GPUSpec,
        *,
        dataset: Any = None,
        budget: int = 16,
        seed: int = 0,
        tuned: dict[str, Any] | None = None,
    ) -> tuple[ExecutionPlan, list[PassRecord]]:
        """Run every pass in order; returns (final plan, per-pass records)."""
        if not self.passes:
            return plan, []
        ctx = PassContext(
            spec=spec, dataset=dataset, budget=budget, seed=seed, tuned=tuned
        )
        baseline_errors = error_keys(plan, spec)
        # the translation-validation gate's anchor: every accepted rewrite
        # must keep the input plan's dataflow normal form (a baseline that
        # is itself unprovable — EQ001 on the *input* — is grandfathered,
        # matching the lint gate's baseline_errors suppression)
        baseline_nf = normalize_plan(plan)
        current = plan
        current_ms = modeled_runtime_s(current, spec) * 1e3
        records: list[PassRecord] = []
        for p in self.passes:
            with span("opt.pass", rule=p.name):
                rewritten = p.apply(current, ctx)
            if rewritten is None:
                records.append(
                    PassRecord(p.name, False, current_ms, current_ms, "no match")
                )
                continue
            new = [
                f
                for f in lint_plan(rewritten, spec).errors
                if f.key() not in baseline_errors
            ]
            if new:
                raise IllegalRewriteError(p.name, rewritten, new)
            eq_note = ""
            if baseline_nf.provable:
                decision = decide_equivalence(
                    baseline_nf, normalize_plan(rewritten)
                )
                if not decision.equivalent:
                    # mismatch (EQ002) and unprovable (EQ001) both raise:
                    # the optimizer treats "cannot prove" as "wrong"
                    raise IllegalRewriteError(
                        p.name, rewritten, decision.findings
                    )
                if decision.verdict == "equivalent-unordered":
                    eq_note = "EQ003 reduction order"
            after_ms = modeled_runtime_s(rewritten, spec) * 1e3
            if after_ms > current_ms * (1.0 + 1e-12):
                records.append(
                    PassRecord(
                        p.name, False, current_ms, after_ms, "unprofitable"
                    )
                )
                continue
            records.append(
                PassRecord(p.name, True, current_ms, after_ms, eq_note)
            )
            current = rewritten
            current_ms = after_ms
        return current, records


def default_pipeline(
    level: str = "safe", *, tuned: dict[str, Any] | None = None
) -> PassPipeline:
    """The standard pipeline for an optimizer level.

    At ``"search"`` with a tuned knob dict available, the kernel search
    is replaced by :class:`~repro.opt.rewrites.ApplyTunedKnobs` — the
    warm-deploy path that replays a persisted tuner decision (the same
    search's, run by :class:`~repro.opt.tuner.AutoTuner`) without
    searching again.
    """
    # local import: rewrites imports this module for the base classes
    from .rewrites import (
        ApplyTunedKnobs,
        DeadIntermediateElimination,
        ElementwiseFusion,
        KernelSearch,
    )

    if level not in OPT_LEVELS:
        raise ValueError(f"opt level must be one of {OPT_LEVELS}: {level!r}")
    if level == "off":
        return PassPipeline(passes=[])
    passes: list[PlanPass] = [
        DeadIntermediateElimination(),
        ElementwiseFusion(),
    ]
    if level == "search":
        passes.append(ApplyTunedKnobs() if tuned else KernelSearch())
    return PassPipeline(passes=passes)


def optimize_plan(
    plan: ExecutionPlan,
    spec: GPUSpec,
    *,
    level: str = "safe",
    dataset: Any = None,
    budget: int = 16,
    seed: int = 0,
    tuned: dict[str, Any] | None = None,
) -> tuple[ExecutionPlan, list[PassRecord]]:
    """Run the default pass pipeline for ``level`` over one plan."""
    pipeline = default_pipeline(level, tuned=tuned)
    if not pipeline.passes:
        return plan, []
    with span("opt.pipeline", level=level, plan=plan.pipeline_name):
        optimized, records = pipeline.run(
            plan, spec, dataset=dataset, budget=budget, seed=seed, tuned=tuned
        )
    # the rewritten plan describes the same cell: keep the content
    # fingerprint (the cache layer adds the opt level to the key itself)
    if optimized is not plan and optimized.fingerprint is None:
        optimized = replace(optimized, fingerprint=plan.fingerprint)
    return optimized, records
