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
Every run takes one path: no run bypasses the cache, so traced and
untraced runs see the same entries, and a traced hit records a
``plan.cache.hit`` span carrying the cached modeled time.  ``lower()``
and ``run()`` resolve a cell the same way (``_prepare``) and share its
key.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from ..gpusim.config import V100, GPUSpec
from ..gpusim.profiler import ProfileReport
from ..graph.csr import CSRGraph
from ..graph.datasets import Dataset
from ..identity import split_cell
from ..obs.reqtrace import current_batch_context
from ..obs.tracer import span
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
    ) -> ExecutionPlan:
        """Lower the cell to this system's kernel pipeline (compile stage)."""

    def plan_knobs(self) -> dict:
        """Every knob that changes lowering or costing — part of the plan
        cache key.  Subclasses extend with their own configuration."""
        return {"dispatch_seconds": self.dispatch_seconds}

    # ------------------------------------------------------------------
    def _prepare(
        self, model: str, data: CSRGraph | Dataset, X: np.ndarray,
        spec: GPUSpec, *, opt: str = "off",
    ) -> tuple[str, CSRGraph, Dataset | None, dict | None, str]:
        """Resolve one cell: ``(model, graph, dataset, tuned, key)``.

        ``tuned`` is the tuned-plan store's knob dict at ``opt="search"``.
        ``key`` is the plan-cache fingerprint, which carries the optimizer
        context.
        """
        model = model.lower()
        if not self.supports(model):
            raise UnsupportedModelError(f"{self.name} does not implement {model}")
        graph, dataset = split_cell(data)
        self.check_capacity(graph, dataset)
        # "off" is the pre-optimizer plan: its key carries no optimizer
        # context
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
    ) -> ExecutionPlan:
        """Compile stage only: lower the cell without executing or costing."""
        model, graph, dataset, _, key = self._prepare(model, data, X, spec)
        plan = self._lower(model, graph, X, spec, dataset=dataset)
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
        opt: str = "off",
    ) -> SystemResult:
        """Execute the model's graph convolution and profile it.

        ``opt`` selects the :mod:`repro.opt` pass-pipeline level applied
        between lowering and execution — ``"off"`` (the default),
        ``"safe"``, or ``"search"``.  At ``"search"`` the installed
        :class:`~repro.opt.TunedPlanStore` is consulted first: a hit
        replays the persisted tuner decision instead of searching.  The
        optimizer context (level, tuner version, tuned knobs) is part of
        the plan-cache fingerprint, so an untuned cached plan is never
        served as a tuned one.
        """
        from ..opt import OPT_LEVELS, optimize_plan

        if opt not in OPT_LEVELS:
            raise ValueError(f"opt must be one of {OPT_LEVELS}: {opt!r}")
        model, graph, dataset, tuned, key = self._prepare(
            model, data, X, spec, opt=opt
        )
        # request-level attribution: when run on behalf of a served batch
        # (the planner calls into run() during dispatch), tag the pipeline
        # (or cache-hit) span with the batch / request ids it serves
        bctx = current_batch_context()
        req_tags = (
            {"batch": bctx.bid, "rids": list(bctx.rids)} if bctx else {}
        )
        cache = get_plan_cache()
        # "is not None": an empty cache is falsy (len 0)
        entry = (
            cache.get(key, system=self.name, model=model)
            if cache is not None else None
        )
        if entry is not None:
            with span(
                "plan.cache.hit", system=self.name, model=model,
                graph=graph.name, **req_tags,
            ) as sp:
                if sp is not None:
                    sp.add_modeled(entry.timing.runtime_seconds)
                output = entry.output.copy()
            stats, timing = entry.stats, entry.timing
            info = replace(entry.info, cached=True)
        else:
            with span(
                f"{self.name}.pipeline", model=model, graph=graph.name,
                **req_tags,
            ) as sp:
                plan = self._lower(model, graph, X, spec, dataset=dataset)
                plan.fingerprint = key
                plan, _ = optimize_plan(
                    plan, spec, level=opt, dataset=dataset, tuned=tuned
                )
                output = execute_plan(plan)
                if sp is not None:
                    sp.set(num_kernels=plan.num_kernels)
            with span(f"{self.name}.costmodel", model=model) as sp:
                stats, timing = model_plan(plan, spec)
                if sp is not None:
                    sp.add_modeled(timing.runtime_seconds)
            info = plan.info()
            if cache is not None:
                cache.put(key, PlanCacheEntry(
                    output=output.copy(), stats=stats, timing=timing, info=info,
                ))
        report = ProfileReport(
            system=self.name,
            model=model,
            dataset=graph.name,
            timing=timing,
            stats=stats,
        )
        report.publish()
        return SystemResult(output=output, report=report, plan=info)

    def check_capacity(self, graph: CSRGraph, dataset: Dataset | None) -> None:
        """Raise :class:`CapacityError` if the workload exceeds the system's
        limits (default: no limits)."""
