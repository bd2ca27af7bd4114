"""Per-cell auto-tuner + the persisted store of winning configurations.

The tuner runs the kernel search of ``opt="search"``
(:func:`~repro.opt.rewrites.search_kernel`) once on one (dataset, model,
GPUSpec) cell — the knob space Figures 10-12 of the paper sweep by hand —
at its own ``budget`` and ``seed``, and persists the decision.  The
search is deterministic, so a warm ``opt="search"`` serves exactly the
plan a cold one would pick at that budget and seed.

Winning configurations persist in the :class:`TunedPlanStore` keyed by
:func:`tuning_key` — a content fingerprint over (system, model, graph,
feature shape, spec, dataset hints, ``TUNER_VERSION``), one projection
of the cell identity that :mod:`repro.identity` owns.
``GNNSystem.profile(opt="search")`` (and ``run``, which profiles first)
consults the installed store: on a hit it replays the stored knobs
through the pass pipeline instead of re-searching, and the
:class:`~repro.plan.PlanCache` key incorporates the same store entry (see
``plan_fingerprint(opt=...)``), so a warm serve deploy picks up tuned
plans transparently and an untuned cached plan is never served as a
tuned one.

Store lookups and records publish ``tuned_plan_hit`` / ``tuned_plan_miss``
/ ``plans_tuned`` counters through the installed metrics registry,
mirroring ``PlanCache.publish``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from ..gpusim.config import V100, GPUSpec
from ..identity import content_key, dataset_block, spec_payload, split_cell
from ..obs.metrics import get_registry
from ..obs.tracer import span
from ..plan.ir import ExecutionPlan
from ..verify import certify_plans
from .passes import PassContext, modeled_runtime_s, optimize_plan
from .rewrites import ApplyTunedKnobs, knobs_for_kernel, search_kernel

__all__ = [
    "TUNER_VERSION",
    "PAPER_FIXED_KNOBS",
    "tuning_key",
    "TunedPlanStore",
    "get_tuned_store",
    "set_tuned_store",
    "TuningResult",
    "AutoTuner",
]

#: bump when the tuner's search space or decision rule changes — part of
#: both the tuning key and the PlanCache opt payload, so stale tuned
#: plans can never alias fresh ones
TUNER_VERSION = 2

#: the paper's fixed TLPGNN configuration (hybrid assignment, 4 warps /
#: 128-thread blocks, step 8, full-warp feature tiles) — the baseline
#: every tuned cell must tie or beat
PAPER_FIXED_KNOBS: dict[str, Any] = {
    "kernel": "tlpgnn",
    "assignment": "hybrid",
    "group_size": 32,
    "register_cache": True,
    "warps_per_block": 4,
    "step": 8,
}


def tuning_key(
    *,
    system: str,
    model: str,
    graph: Any,
    X: np.ndarray,
    spec: GPUSpec,
    dataset: Any = None,
) -> str:
    """Content sha256 identifying one tunable cell.

    Deliberately coarser than ``plan_fingerprint``: the feature *values*
    are excluded (only shape/dtype matter to a tuning decision), so one
    tuned entry covers every feature matrix of the same geometry on the
    same graph.
    """
    payload = {
        "system": system,
        "model": model,
        "spec": spec_payload(spec),
        "x": [list(X.shape), str(X.dtype)],
        "dataset": dataset_block(dataset),
        "tuner_version": TUNER_VERSION,
    }
    return content_key(payload, graph=graph)


class TunedPlanStore:
    """Persisted (tuning key -> winning knob dict) map with counters.

    The serving-side complement of the tuner: ``GNNSystem.profile(opt=
    "search")`` (and ``run``) looks its cell up here before falling back
    to a live search.  JSON round-trippable; entries recorded under a different
    ``TUNER_VERSION`` are dropped on load rather than replayed.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.tuned = 0
        #: version-mismatched entries skipped by the last ``load`` — they
        #: used to vanish silently; now they are counted, logged, exposed
        #: as the ``tuned_plans_dropped`` metric, and surfaced by
        #: ``repro tune --store``
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def lookup(self, key: str, **labels: str) -> dict[str, Any] | None:
        """Knob dict for a tuning key; counts and publishes the hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("tuned_plan_miss", labels)
            return None
        self.hits += 1
        self._count("tuned_plan_hit", labels)
        return dict(entry["knobs"])

    def entry(self, key: str) -> dict[str, Any] | None:
        """The full persisted entry for a key (knobs, timings, cell info,
        equivalence certificate) — no hit/miss accounting; used by the
        ``serve --certified`` preflight and the certificate tests."""
        entry = self._entries.get(key)
        return dict(entry) if entry is not None else None

    def record(
        self,
        key: str,
        *,
        knobs: dict[str, Any],
        tuned_ms: float,
        fixed_ms: float,
        cell: dict[str, Any] | None = None,
        certificate: dict[str, Any] | None = None,
    ) -> None:
        """Persist one cell's winning configuration (plus, when the tuner
        could prove it, the tuned-vs-default equivalence certificate)."""
        self._entries[key] = {
            "version": TUNER_VERSION,
            "knobs": dict(knobs),
            "tuned_ms": tuned_ms,
            "fixed_ms": fixed_ms,
            "cell": dict(cell or {}),
            "certificate": dict(certificate) if certificate else None,
        }
        self.tuned += 1
        self._count("plans_tuned", {})

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.tuned = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        doc = {"tuner_version": TUNER_VERSION, "entries": self._entries}
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "TunedPlanStore":
        store = cls()
        doc = json.loads(Path(path).read_text())
        for key, entry in doc.get("entries", {}).items():
            if entry.get("version") == TUNER_VERSION:
                store._entries[key] = entry
            else:
                store.dropped += 1
                store._count("tuned_plans_dropped", {})
        if store.dropped:
            logging.getLogger(__name__).warning(
                "tuned-plan store %s: dropped %d entry(ies) recorded under "
                "tuner version != %d (stale knobs are never replayed)",
                path, store.dropped, TUNER_VERSION,
            )
        return store

    def snapshot(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "tuned": self.tuned,
            "dropped": self.dropped,
        }

    def publish(self, registry: Any = None) -> None:
        """Publish the store's state into a metrics registry (mirrors
        ``PlanCache.publish``): the per-event counters materialized even
        at zero plus lifetime gauges."""
        registry = registry if registry is not None else get_registry()
        if registry is None:
            return
        registry.counter("tuned_plan_hit")
        registry.counter("tuned_plan_miss")
        registry.counter("plans_tuned")
        registry.counter("tuned_plans_dropped")
        snap = self.snapshot()
        registry.gauge("tuned_plan_entries").set(snap["entries"])
        registry.gauge("tuned_plan_hits").set(snap["hits"])
        registry.gauge("tuned_plan_misses").set(snap["misses"])
        registry.gauge("plans_tuned_total").set(snap["tuned"])
        registry.gauge("tuned_plans_dropped_total").set(snap["dropped"])

    # ------------------------------------------------------------------
    @staticmethod
    def _count(name: str, labels: dict[str, str]) -> None:
        registry = get_registry()
        if registry is not None:
            registry.counter(name, **labels).inc()


#: process-wide store the ``opt="search"`` run path consults
_TUNED_STORE: TunedPlanStore = TunedPlanStore()


def get_tuned_store() -> TunedPlanStore:
    """The installed process-wide tuned-plan store."""
    return _TUNED_STORE


def set_tuned_store(store: TunedPlanStore) -> TunedPlanStore:
    """Install a tuned-plan store; returns the previous one."""
    global _TUNED_STORE
    previous = _TUNED_STORE
    _TUNED_STORE = store
    return previous


# ----------------------------------------------------------------------
@dataclass
class TuningResult:
    """Outcome of tuning one (dataset, model, spec) cell."""

    system: str
    model: str
    graph: str
    key: str
    #: modeled ms of the paper's fixed TLPGNN configuration on this cell
    fixed_ms: float
    #: modeled ms of the as-lowered (default) plan
    default_ms: float
    #: modeled ms of the winning configuration
    tuned_ms: float
    best_knobs: dict[str, Any]
    #: candidates the search scored (<= budget by contract)
    iterations: int

    @property
    def speedup_vs_fixed(self) -> float:
        return self.fixed_ms / self.tuned_ms if self.tuned_ms else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "model": self.model,
            "graph": self.graph,
            "key": self.key,
            "fixed_ms": self.fixed_ms,
            "default_ms": self.default_ms,
            "tuned_ms": self.tuned_ms,
            "speedup_vs_fixed": self.speedup_vs_fixed,
            "best_knobs": self.best_knobs,
            "iterations": self.iterations,
        }


class AutoTuner:
    """Run the kernel search once on a cell and persist its decision.

    ``budget`` bounds the candidates the search scores, as it does for
    ``optimize_plan(level="search")``: at the same budget and seed both
    pick the same plan.
    """

    def __init__(
        self,
        *,
        budget: int = 32,
        seed: int = 0,
        store: TunedPlanStore | None = None,
    ) -> None:
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.budget = budget
        self.seed = seed
        self.store = store

    def tune(
        self,
        system: Any,
        model: str,
        data: Any,
        X: np.ndarray,
        spec: GPUSpec = V100,
    ) -> TuningResult:
        """Search one cell; records the winner in the tuned-plan store."""
        plan = system.lower(model, data, X, spec)
        graph, dataset = split_cell(data)
        # the searchable baseline: safe rewrites applied first, as the
        # search-level pipeline does before its search
        plan, _ = optimize_plan(plan, spec, level="safe", dataset=dataset)
        key = tuning_key(
            system=system.name, model=model, graph=graph, X=X,
            spec=spec, dataset=dataset,
        )
        ctx = PassContext(
            spec=spec, dataset=dataset, budget=self.budget, seed=self.seed
        )
        with span("opt.tune", system=system.name, model=model,
                  graph=graph.name):
            winner, tuned_s, scored = search_kernel(plan, ctx)
        default_ms = modeled_runtime_s(plan, spec) * 1e3
        conv = (winner or plan).conv_op
        kernel = None if conv is None else conv.kernel
        # a kernel outside the knob vocabulary (or no conv op) replays as
        # the lowered plan itself
        best_knobs: dict[str, Any] = knobs_for_kernel(kernel) or {
            "kernel": "reference" if kernel is None else kernel.name
        }
        fixed_plan = self._replay(plan, ctx, PAPER_FIXED_KNOBS)
        fixed_ms = (
            default_ms if fixed_plan is plan
            else modeled_runtime_s(fixed_plan, spec) * 1e3
        )
        result = TuningResult(
            system=plan.system, model=plan.model, graph=plan.graph_name,
            key=key, fixed_ms=fixed_ms, default_ms=default_ms,
            tuned_ms=tuned_s * 1e3, best_knobs=best_knobs, iterations=scored,
        )
        # translation-validate the winner before persisting it: certify
        # the plan opt="search" will replay against the safe-optimized
        # default.  A non-equivalent winner is a search bug — refuse to
        # persist knobs that change semantics rather than record them
        # uncertified.
        tuned_plan = self._replay(plan, ctx, best_knobs)
        certification = certify_plans(tuned_plan, plan)
        if tuned_plan is not plan and not certification.certified:
            raise RuntimeError(
                f"tuner produced a non-equivalent plan for {key[:12]}..: "
                f"{certification.decision.render()}"
            )
        certificate = (
            certification.certificate.as_dict()
            if certification.certificate is not None
            else None
        )
        store = self.store if self.store is not None else get_tuned_store()
        store.record(
            key,
            knobs=best_knobs,
            tuned_ms=result.tuned_ms,
            fixed_ms=fixed_ms,
            cell={
                "system": result.system,
                "model": result.model,
                "graph": result.graph,
                "x_shape": list(X.shape),
            },
            certificate=certificate,
        )
        return result

    @staticmethod
    def _replay(
        plan: ExecutionPlan, ctx: PassContext, knobs: dict[str, Any]
    ) -> ExecutionPlan:
        """``plan`` with ``knobs`` applied the way a warm ``opt="search"``
        replays them (``plan`` itself where they change nothing)."""
        return ApplyTunedKnobs().apply(plan, replace(ctx, tuned=knobs)) or plan
