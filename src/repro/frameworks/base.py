"""Framework base: what a "GNN computation system" is in this reproduction.

A system takes a model name + graph + input features, **lowers** the cell
to an :class:`~repro.plan.ExecutionPlan` (its own kernel pipeline), then
the shared analyzer of :mod:`repro.plan` costs the plan into a
:class:`~repro.gpusim.profiler.ProfileReport` with modeled timing and
counters, and the shared executor computes its output.  Every system's
output is the shared executor's reference aggregation of its workload,
so systems agree by construction and Table 5 compares *how*, not *what*.

Systems are pure lowering rules: subclasses implement ``_lower`` (and
``plan_knobs`` for their cache-key knobs).  Two entry points share the
:class:`~repro.plan.PlanCache` in front of them:

* ``profile()`` lowers, optimizes and costs the cell, and never executes
  it.  The cache holds its result, so a warm hit skips all three.
  Serving and every table and figure regenerator read only profiles.
* ``run()`` is ``profile()`` plus the output.  A miss executes the plan
  it just built; a hit lowers and optimizes again and executes, but
  skips the analysis.

Every call takes one path: nothing bypasses the cache, so traced and
untraced calls see the same entries, and a traced hit records a
``plan.cache.hit`` span carrying the cached modeled time.  ``lower()``,
``profile()`` and ``run()`` resolve a cell the same way (``_prepare``)
and share its key.
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

__all__ = [
    "GNNSystem", "SystemProfile", "SystemResult", "UnsupportedModelError",
    "CapacityError",
]

#: ``_prepare``'s resolution of one cell: (model, graph, dataset, tuned, key)
_Cell = tuple[str, CSRGraph, Dataset | None, dict | None, str]


class UnsupportedModelError(NotImplementedError):
    """The system does not implement this GNN model (GNNAdvisor ⊅ GAT/Sage)."""


class CapacityError(RuntimeError):
    """The system cannot handle the workload (GNNAdvisor's illegal memory
    access on the four largest graphs)."""


@dataclass
class SystemProfile:
    """Modeled profile of one convolution, without its output."""

    report: ProfileReport
    #: summary of the lowered plan (``plan.cached`` marks warm-cache hits)
    plan: PlanInfo

    @property
    def runtime_ms(self) -> float:
        return self.report.runtime_ms


@dataclass
class SystemResult(SystemProfile):
    """A profile plus the output features of the executed convolution."""

    output: np.ndarray


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
    ) -> _Cell:
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
        return self._compile(self._prepare(model, data, X, spec), X, spec, "off")

    def _compile(
        self, cell: _Cell, X: np.ndarray, spec: GPUSpec, opt: str
    ) -> ExecutionPlan:
        """Lower a resolved cell and run the ``opt`` pass pipeline on it
        (``"off"`` runs none)."""
        from ..opt import optimize_plan

        model, graph, dataset, tuned, key = cell
        plan = self._lower(model, graph, X, spec, dataset=dataset)
        plan.fingerprint = key
        plan, _ = optimize_plan(plan, spec, level=opt, dataset=dataset, tuned=tuned)
        return plan

    # ------------------------------------------------------------------
    def profile(
        self,
        model: str,
        data: CSRGraph | Dataset,
        X: np.ndarray,
        spec: GPUSpec = V100,
        *,
        opt: str = "off",
    ) -> SystemProfile:
        """Profile the model's graph convolution without executing it.

        ``opt`` selects the :mod:`repro.opt` pass-pipeline level applied
        after lowering — ``"off"`` (the default), ``"safe"``, or
        ``"search"``.  At ``"search"`` the installed
        :class:`~repro.opt.TunedPlanStore` is consulted first: a hit
        replays the persisted tuner decision instead of searching.  The
        optimizer context (level, tuner version, tuned knobs) is part of
        the plan-cache fingerprint, so an untuned cached plan is never
        served as a tuned one.
        """
        return self._profile(model, data, X, spec, opt)[0]

    def run(
        self,
        model: str,
        data: CSRGraph | Dataset,
        X: np.ndarray,
        spec: GPUSpec = V100,
        *,
        opt: str = "off",
    ) -> SystemResult:
        """:meth:`profile` the convolution, then execute it for its output.

        The profile is the same as ``profile()``'s, from the same cache.  A
        cache hit holds no plan, so the cell is lowered and optimized again
        to execute it.
        """
        prof, plan, cell = self._profile(model, data, X, spec, opt)
        if plan is None:
            plan = self._compile(cell, X, spec, opt)
        return SystemResult(
            report=prof.report, plan=prof.plan, output=execute_plan(plan)
        )

    def _profile(
        self, model: str, data: CSRGraph | Dataset, X: np.ndarray,
        spec: GPUSpec, opt: str,
    ) -> tuple[SystemProfile, ExecutionPlan | None, _Cell]:
        """The profile, the plan a cache miss built (None on a hit) and
        the resolved cell."""
        from ..opt import OPT_LEVELS

        if opt not in OPT_LEVELS:
            raise ValueError(f"opt must be one of {OPT_LEVELS}: {opt!r}")
        cell = self._prepare(model, data, X, spec, opt=opt)
        model, graph, _, _, key = cell
        # request-level attribution: when profiled on behalf of a served
        # batch (the planner calls in during dispatch), tag the pipeline
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
        plan = None
        if entry is not None:
            with span(
                "plan.cache.hit", system=self.name, model=model,
                graph=graph.name, **req_tags,
            ) as sp:
                if sp is not None:
                    sp.add_modeled(entry.timing.runtime_seconds)
            stats, timing = entry.stats, entry.timing
            info = replace(entry.info, cached=True)
        else:
            with span(
                f"{self.name}.pipeline", model=model, graph=graph.name,
                **req_tags,
            ) as sp:
                plan = self._compile(cell, X, spec, opt)
                if sp is not None:
                    sp.set(num_kernels=plan.num_kernels)
            with span(f"{self.name}.costmodel", model=model) as sp:
                stats, timing = model_plan(plan, spec)
                if sp is not None:
                    sp.add_modeled(timing.runtime_seconds)
            info = plan.info()
            if cache is not None:
                cache.put(key, PlanCacheEntry(stats=stats, timing=timing, info=info))
        report = ProfileReport(
            system=self.name,
            model=model,
            dataset=graph.name,
            timing=timing,
            stats=stats,
        )
        report.publish()
        return SystemProfile(report=report, plan=info), plan, cell

    def check_capacity(self, graph: CSRGraph, dataset: Dataset | None) -> None:
        """Raise :class:`CapacityError` if the workload exceeds the system's
        limits (default: no limits)."""
