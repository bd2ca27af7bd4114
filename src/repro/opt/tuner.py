"""Per-cell auto-tuner + the persisted store of winning configurations.

The tuner searches the compute-kernel knob space of one (dataset, model,
GPUSpec) cell — the same space Figures 10-12 of the paper sweep by hand —
with a *deterministic seeded* strategy: the candidate order is a fixed
enumeration shuffled by ``numpy.random.default_rng(seed)``, the paper's
fixed TLPGNN configuration and the as-lowered configuration are always
measured regardless of budget, and every measurement is memoized by
(plan fingerprint, knob dict), so re-running the tuner with the same
inputs replays byte-identical decisions.

Winning configurations persist in the :class:`TunedPlanStore` keyed by
:func:`tuning_key` — a content fingerprint over (system, model, graph,
feature shape, spec, dataset hints, ``TUNER_VERSION``), one projection
of the cell identity that :mod:`repro.identity` owns.  ``GNNSystem.run
(opt="search")`` consults the installed store: on a hit it replays the
stored knobs through the pass pipeline instead of re-searching, and the
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..gpusim.config import V100, GPUSpec
from ..identity import content_key, dataset_block, spec_payload, split_cell
from ..obs.metrics import get_registry
from ..obs.tracer import span
from ..verify import certify_plans
from .passes import PassContext, modeled_runtime_s, optimize_plan
from .rewrites import (
    _conv_index,
    _with_kernel,
    kernel_from_knobs,
    knobs_for_kernel,
    launch_grid,
    mapping_candidates,
)

__all__ = [
    "TUNER_VERSION",
    "PAPER_FIXED_KNOBS",
    "tuning_key",
    "TunedPlanStore",
    "get_tuned_store",
    "set_tuned_store",
    "TuningTrial",
    "TuningResult",
    "AutoTuner",
]

#: bump when the tuner's search space or decision rule changes — part of
#: both the tuning key and the PlanCache opt payload, so stale tuned
#: plans can never alias fresh ones
TUNER_VERSION = 1

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

    The serving-side complement of the tuner: ``GNNSystem.run(opt=
    "search")`` looks its cell up here before falling back to a live
    search.  JSON round-trippable; entries recorded under a different
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
@dataclass(frozen=True)
class TuningTrial:
    """One measured candidate configuration."""

    knobs: dict[str, Any]
    modeled_ms: float
    cached: bool = False


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
    trials: list[TuningTrial] = field(default_factory=list)
    #: candidate measurements actually performed (<= budget by contract)
    iterations: int = 0

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
            "trials": [
                {"knobs": t.knobs, "modeled_ms": t.modeled_ms}
                for t in self.trials
            ],
        }


class AutoTuner:
    """Deterministic budgeted search over one cell's knob space.

    ``budget`` bounds the number of *distinct candidate measurements*
    per cell; the memoization cache means repeated knob dicts are free.
    The paper-fixed configuration and the as-lowered configuration are
    always measured (they anchor the tie-or-win guarantee and the
    result's baselines) and count toward the budget.
    """

    def __init__(
        self,
        *,
        budget: int = 32,
        seed: int = 0,
        store: TunedPlanStore | None = None,
    ) -> None:
        if budget < 2:
            raise ValueError("budget must be >= 2 (baselines are measured)")
        self.budget = budget
        self.seed = seed
        self.store = store
        #: (plan fingerprint or graph name, canonical knob json) -> ms
        self._measurements: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def _measure(
        self, plan: Any, idx: int, kernel: Any, spec: GPUSpec
    ) -> tuple[float, bool]:
        """Modeled ms of `plan` with `kernel` rebound; memoized."""
        knobs = knobs_for_kernel(kernel) or {"kernel": kernel.name}
        cell = plan.fingerprint or f"{plan.system}/{plan.model}/{plan.graph_name}"
        memo = (cell, json.dumps(knobs, sort_keys=True, default=str))
        if memo in self._measurements:
            return self._measurements[memo], True
        cand = _with_kernel(plan, idx, kernel)
        ms = modeled_runtime_s(cand, spec) * 1e3
        self._measurements[memo] = ms
        return ms, False

    def candidates(self, workload: Any, ctx: PassContext) -> list[Any]:
        """The full knob space for one cell, deterministically ordered."""
        seen: set[str] = set()
        space: list[Any] = []
        for kernel in mapping_candidates(workload, ctx):
            for variant in (
                launch_grid(kernel)
                if hasattr(kernel, "group_size")
                else [kernel]
            ):
                tag = json.dumps(
                    knobs_for_kernel(variant), sort_keys=True, default=str
                )
                if tag not in seen:
                    seen.add(tag)
                    space.append(variant)
        return space

    # ------------------------------------------------------------------
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
        # the searchable baseline: safe rewrites applied first, so the
        # tuner searches mappings of the cleaned-up pipeline
        plan, _ = optimize_plan(plan, spec, level="safe", dataset=dataset)
        key = tuning_key(
            system=system.name, model=model, graph=graph, X=X,
            spec=spec, dataset=dataset,
        )
        conv = plan.conv_op
        default_knobs = knobs_for_kernel(conv.kernel) if conv else None
        idx = _conv_index(plan)
        with span("opt.tune", system=system.name, model=model,
                  graph=graph.name):
            result = self._search(
                plan, idx, key, spec, dataset, default_knobs
            )
        store = self.store if self.store is not None else get_tuned_store()
        # translation-validate the winner before persisting it: rebuild
        # the tuned plan exactly the way opt="search" will replay it and
        # certify it against the safe-optimized default.  A non-equivalent
        # winner is a tuner bug — refuse to persist knobs that change
        # semantics rather than record them uncertified.
        tuned_plan = plan
        if idx is not None:
            best_kernel = kernel_from_knobs(result.best_knobs, dataset=dataset)
            if best_kernel is not None:
                tuned_plan = _with_kernel(plan, idx, best_kernel)
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
        store.record(
            key,
            knobs=result.best_knobs,
            tuned_ms=result.tuned_ms,
            fixed_ms=result.fixed_ms,
            cell={
                "system": result.system,
                "model": result.model,
                "graph": result.graph,
                "x_shape": list(X.shape),
            },
            certificate=certificate,
        )
        return result

    def _search(
        self,
        plan: Any,
        idx: int | None,
        key: str,
        spec: GPUSpec,
        dataset: Any,
        default_knobs: dict[str, Any] | None,
    ) -> TuningResult:
        default_ms = modeled_runtime_s(plan, spec) * 1e3
        trials: list[TuningTrial] = []
        iterations = 0

        if idx is None:
            # no rebindable compute kernel (conv-free baseline
            # pipelines): the safe-optimized default is the decision
            best = default_knobs or {"kernel": "reference"}
            return TuningResult(
                system=plan.system, model=plan.model, graph=plan.graph_name,
                key=key, fixed_ms=default_ms, default_ms=default_ms,
                tuned_ms=default_ms, best_knobs=best,
                trials=trials, iterations=0,
            )

        ctx = PassContext(
            spec=spec, dataset=dataset, budget=self.budget, seed=self.seed
        )
        workload = plan.ops[idx].workload

        def measure(kernel: Any) -> float:
            nonlocal iterations
            ms, cached = self._measure(plan, idx, kernel, spec)
            if not cached:
                iterations += 1
            trials.append(
                TuningTrial(
                    knobs=knobs_for_kernel(kernel) or {},
                    modeled_ms=ms,
                    cached=cached,
                )
            )
            return ms

        # anchors first: the paper-fixed config and the as-lowered config
        fixed_kernel = kernel_from_knobs(PAPER_FIXED_KNOBS, dataset=dataset)
        fixed_ms = measure(fixed_kernel)
        best_knobs, best_ms = dict(PAPER_FIXED_KNOBS), fixed_ms
        if default_knobs and default_knobs != PAPER_FIXED_KNOBS:
            default_kernel = kernel_from_knobs(default_knobs, dataset=dataset)
            if default_kernel is not None:
                ms = measure(default_kernel)
                if ms < best_ms:
                    best_knobs, best_ms = dict(default_knobs), ms

        space = [
            k
            for k in self.candidates(workload, ctx)
            if knobs_for_kernel(k) not in (PAPER_FIXED_KNOBS, default_knobs)
        ]
        order = np.random.default_rng(self.seed).permutation(len(space))
        for j in order:
            if iterations >= self.budget:
                break
            kernel = space[int(j)]
            ms = measure(kernel)
            if ms < best_ms:  # strict: ties keep the earlier candidate
                best_knobs, best_ms = knobs_for_kernel(kernel) or {}, ms

        return TuningResult(
            system=plan.system, model=plan.model, graph=plan.graph_name,
            key=key, fixed_ms=fixed_ms, default_ms=default_ms,
            tuned_ms=best_ms, best_knobs=best_knobs,
            trials=trials, iterations=iterations,
        )
