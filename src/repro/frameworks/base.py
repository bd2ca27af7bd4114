"""Framework base: what a "GNN computation system" is in this reproduction.

A system takes a model name + graph + input features, **lowers** the cell
to an :class:`~repro.plan.ExecutionPlan` (its own kernel pipeline), then
the shared executor/analyzer of :mod:`repro.plan` runs the plan and costs
it, returning the output plus a :class:`~repro.gpusim.profiler.
ProfileReport` with modeled timing and counters.  Every system's output
is the shared executor's reference aggregation of its workload, so
systems agree by construction and Table 5 compares *how*, not *what*.

Systems are pure lowering rules: subclasses implement ``_lower`` (and
``plan_knobs`` for their cache-key knobs); ``run()`` is the shared
three-stage driver with the :class:`~repro.plan.PlanCache` in front.
Cache bypass rules: an explicit ``rng`` (caller-controlled randomness)
or an installed tracer (spans must observe real execution) always runs
the full pipeline.  ``lower()`` and ``run()`` resolve a cell the same
way (``_prepare``), so an explicit ``rng`` leaves both without a content
key.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from ..gpusim.config import V100, GPUSpec
from ..gpusim.profiler import ProfileReport
from ..graph.csr import CSRGraph
from ..graph.datasets import Dataset
from ..identity import split_cell
from ..lint import PlanLintError, lint_plan
from ..obs.reqtrace import current_batch_context
from ..obs.tracer import get_tracer, span
from ..plan import (
    ExecutionPlan,
    PlanCacheEntry,
    PlanInfo,
    execute_plan,
    get_plan_cache,
    model_plan,
    plan_fingerprint,
)

__all__ = ["GNNSystem", "SystemResult", "UnsupportedModelError", "CapacityError"]


class UnsupportedModelError(NotImplementedError):
    """The system does not implement this GNN model (GNNAdvisor ⊅ GAT/Sage)."""


class CapacityError(RuntimeError):
    """The system cannot handle the workload (GNNAdvisor's illegal memory
    access on the four largest graphs)."""


@dataclass
class SystemResult:
    """Output features + profile of one convolution execution."""

    output: np.ndarray
    report: ProfileReport
    #: summary of the lowered plan (``plan.cached`` marks warm-cache hits)
    plan: PlanInfo | None = None

    @property
    def runtime_ms(self) -> float:
        return self.report.runtime_ms


class GNNSystem(ABC):
    """A GNN computation system (DGL / GNNAdvisor / FeatGraph / TLPGNN)."""

    name: str = "system"
    #: per-kernel host dispatch cost of the system's runtime loop (seconds);
    #: None = bare kernel launches only (no framework layer between kernels)
    dispatch_seconds: float | None = None

    @abstractmethod
    def supports(self, model: str) -> bool:
        """Whether the system implements this model's convolution."""

    @abstractmethod
    def _lower(
        self,
        model: str,
        graph: CSRGraph,
        X: np.ndarray,
        spec: GPUSpec,
        *,
        dataset: Dataset | None,
        rng: np.random.Generator,
    ) -> ExecutionPlan:
        """Lower the cell to this system's kernel pipeline (compile stage)."""

    def plan_knobs(self) -> dict:
        """Every knob that changes lowering or costing — part of the plan
        cache key.  Subclasses extend with their own configuration."""
        return {"dispatch_seconds": self.dispatch_seconds}

    # ------------------------------------------------------------------
    def _prepare(
        self, model: str, data: CSRGraph | Dataset, X: np.ndarray,
        spec: GPUSpec, *, rng: np.random.Generator | None, opt: str | None = None,
    ) -> tuple[str, CSRGraph, Dataset | None, dict | None, str | None]:
        """Resolve one cell: ``(model, graph, dataset, tuned, key)``.

        ``tuned`` is the tuned-plan store's knob dict at ``opt="search"``.
        ``key`` is the plan-cache fingerprint, which carries the optimizer
        context.  An explicit ``rng`` makes the cell content-unaddressable:
        the key cannot capture caller-controlled randomness, so it is None.
        """
        model = model.lower()
        if not self.supports(model):
            raise UnsupportedModelError(f"{self.name} does not implement {model}")
        graph, dataset = split_cell(data)
        self.check_capacity(graph, dataset)
        # "off" means the pre-optimizer plan and deliberately shares the
        # legacy opt=None fingerprint
        opt_ctx = tuned = None
        if opt in ("safe", "search"):
            from ..opt import TUNER_VERSION, get_tuned_store, tuning_key

            if opt == "search":
                tkey = tuning_key(
                    system=self.name, model=model, graph=graph,
                    X=X, spec=spec, dataset=dataset,
                )
                tuned = get_tuned_store().lookup(
                    tkey, system=self.name, model=model
                )
            opt_ctx = {"level": opt, "tuner_version": TUNER_VERSION, "tuned": tuned}
        if rng is not None:
            return model, graph, dataset, tuned, None
        key = plan_fingerprint(
            system=self.name, model=model, graph=graph, X=X, spec=spec,
            knobs=self.plan_knobs(), dataset=dataset, opt=opt_ctx,
        )
        return model, graph, dataset, tuned, key

    def lower(
        self,
        model: str,
        data: CSRGraph | Dataset,
        X: np.ndarray,
        spec: GPUSpec = V100,
        *,
        rng: np.random.Generator | None = None,
    ) -> ExecutionPlan:
        """Compile stage only: lower the cell without executing or costing."""
        model, graph, dataset, _, key = self._prepare(
            model, data, X, spec, rng=rng
        )
        plan = self._lower(
            model, graph, X, spec,
            dataset=dataset, rng=rng or np.random.default_rng(0),
        )
        plan.fingerprint = key
        return plan

    # ------------------------------------------------------------------
    def run(
        self,
        model: str,
        data: CSRGraph | Dataset,
        X: np.ndarray,
        spec: GPUSpec = V100,
        *,
        rng: np.random.Generator | None = None,
        lint: str | None = None,
        opt: str | None = None,
    ) -> SystemResult:
        """Execute the model's graph convolution and profile it.

        ``lint`` gates execution on the static plan analyzer: ``"strict"``
        raises :class:`~repro.lint.PlanLintError` on any error-severity
        finding, ``"warn"`` emits the report as a warning; either mode
        bypasses the plan cache (cache hits skip lowering, so there would
        be no ops to analyze).

        ``opt`` selects the :mod:`repro.opt` pass-pipeline level applied
        between lowering and execution — ``"off"`` (or None, the
        default), ``"safe"``, or ``"search"``.  At ``"search"`` the
        installed :class:`~repro.opt.TunedPlanStore` is consulted first:
        a hit replays the persisted tuner decision instead of searching.
        The optimizer context (level, tuner version, tuned knobs) is
        part of the plan-cache fingerprint, so an untuned cached plan is
        never served as a tuned one.
        """
        if lint not in (None, "warn", "strict"):
            raise ValueError(f"lint must be None, 'warn' or 'strict': {lint!r}")
        from ..opt import OPT_LEVELS, optimize_plan

        if opt is not None and opt not in OPT_LEVELS:
            raise ValueError(f"opt must be one of {OPT_LEVELS}: {opt!r}")
        model, graph, dataset, tuned, key = self._prepare(
            model, data, X, spec, rng=rng, opt=opt
        )
        cache = get_plan_cache()
        # a tracer demands real execution, but the fingerprint itself
        # stays valid
        cacheable = (
            key is not None
            and cache is not None
            and get_tracer() is None
            and lint is None
        )
        if cacheable:
            entry = cache.get(key, system=self.name, model=model)
            if entry is not None:
                report = ProfileReport(
                    system=self.name,
                    model=model,
                    dataset=graph.name,
                    timing=entry.timing,
                    stats=entry.stats,
                )
                report.publish()
                return SystemResult(
                    output=entry.output.copy(),
                    report=report,
                    plan=replace(entry.info, cached=True),
                )

        rng = rng or np.random.default_rng(0)
        # request-level attribution: when run on behalf of a served batch
        # (the planner calls into run() during dispatch), tag the pipeline
        # span with the batch / request ids it serves
        bctx = current_batch_context()
        req_tags = (
            {"batch": bctx.bid, "rids": list(bctx.rids)} if bctx else {}
        )
        with span(
            f"{self.name}.pipeline", model=model, graph=graph.name, **req_tags
        ) as sp:
            plan = self._lower(model, graph, X, spec, dataset=dataset, rng=rng)
            plan.fingerprint = key
            certificate = None
            if opt in ("safe", "search"):
                lowered = plan
                plan, _opt_records = optimize_plan(
                    plan, spec, level=opt, dataset=dataset, tuned=tuned
                )
                # every accepted rewrite passed the equivalence gate, so
                # this end-to-end certificate always issues; it rides the
                # cache entry alongside the fingerprint
                from ..verify import certify_plans

                certification = certify_plans(plan, lowered)
                if certification.certificate is not None:
                    certificate = certification.certificate.as_dict()
            if lint is not None:
                lint_report = lint_plan(plan, spec)
                if lint == "strict" and lint_report.errors:
                    raise PlanLintError(lint_report)
                if lint_report.findings:
                    warnings.warn(lint_report.render(), stacklevel=2)
            output = execute_plan(plan)
            if sp is not None:
                sp.set(num_kernels=plan.num_kernels)
        with span(f"{self.name}.costmodel", model=model) as sp:
            pipeline, timing = model_plan(plan, spec)
            if sp is not None:
                sp.add_modeled(timing.runtime_seconds)
        report = ProfileReport(
            system=self.name,
            model=model,
            dataset=graph.name,
            timing=timing,
            stats=pipeline,
        )
        report.publish()
        if cacheable:
            cache.put(
                key,
                PlanCacheEntry(
                    output=output.copy(),
                    stats=pipeline,
                    timing=timing,
                    info=plan.info(),
                    certificate=certificate,
                ),
            )
        return SystemResult(output=output, report=report, plan=plan.info())

    def check_capacity(self, graph: CSRGraph, dataset: Dataset | None) -> None:
        """Raise :class:`CapacityError` if the workload exceeds the system's
        limits (default: no limits)."""
