"""Bounded plan cache keyed by a content fingerprint.

A cache entry memoizes what the lower + optimize + analyze/cost stages
produce for one (system, model, graph, feature geometry, spec, knobs)
cell: the aggregated :class:`~repro.gpusim.kernel.PipelineStats`, the
:class:`~repro.gpusim.costmodel.PipelineTiming` and the plan's
:class:`~repro.plan.ir.PlanInfo` — a profile, never an output.  A warm
``GNNSystem.profile`` therefore skips lowering, optimization and the
whole counter/cost analysis — the host-side win
``benchmarks/bench_serving.py`` measures; a warm ``GNNSystem.run`` skips
only the analysis, and computes its output from its own features.

Cache key (:func:`plan_fingerprint`) — content, never identity.  It is
one projection of the cell identity that :mod:`repro.identity` owns:

* the graph's :meth:`~repro.graph.csr.CSRGraph.fingerprint` (sha256 over
  the CSR arrays),
* the feature matrix's shape and dtype, not its values: no modeled
  counter or time reads a feature value (``tests/plan/
  test_profile_without_output.py`` pins that), so two feature matrices
  of one geometry share a profile,
* model name, system name, and the system's ``plan_knobs()`` dict,
* the full :class:`~repro.gpusim.config.GPUSpec`,
* the dataset's full-size hints (they steer TLPGNN's hybrid heuristic).

Invalidation rules: anything not in the key must not change results.
No path bypasses the cache: every ``GNNSystem.profile`` and ``run``
consults it, traced or not (a traced hit records a ``plan.cache.hit``
span).  The key holds a model's *name*, not its spec, so re-registering
a name (:func:`repro.mp.register` with ``replace=True``, or
:func:`repro.mp.unregister`) drops that name's entries from the
installed cache (:meth:`PlanCache.discard_model`).

Hits and misses are published as ``plan_cache_hit`` / ``plan_cache_miss``
counters into the installed :mod:`repro.obs.metrics` registry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..gpusim.config import GPUSpec
from ..gpusim.costmodel import PipelineTiming
from ..gpusim.kernel import PipelineStats
from ..identity import content_key, dataset_block, spec_payload
from ..obs.metrics import get_registry
from .ir import PlanInfo

__all__ = [
    "PlanCache",
    "PlanCacheEntry",
    "plan_fingerprint",
    "get_plan_cache",
    "set_plan_cache",
]

#: default entry bound — big enough for a bench sweep's working set; an
#: entry holds counters (with each kernel's per-warp cycles) and timings,
#: never an output matrix
DEFAULT_MAXSIZE = 32


def plan_fingerprint(
    *,
    system: str,
    model: str,
    graph,
    X: np.ndarray,
    spec: GPUSpec,
    knobs: dict | None = None,
    dataset=None,
    opt: dict | None = None,
) -> str:
    """Content sha256 identifying one lowered + analyzed cell.

    ``X`` enters as its shape and dtype, as in
    :func:`repro.opt.tuner.tuning_key`: the profile an entry holds reads
    no feature value.  ``opt`` carries the optimizer context (level,
    tuner version, tuned knob dict) of a ``"safe"``/``"search"`` run —
    part of the key so an untuned cached plan is never served as a tuned
    one and vice versa.  ``None`` (``opt="off"``, the pre-optimizer
    plan) is left out of the payload.
    """
    payload = {
        "system": system,
        "model": model,
        "knobs": knobs or {},
        "spec": spec_payload(spec),
        "dataset": dataset_block(dataset),
        "x": [list(X.shape), str(X.dtype)],
    }
    if opt is not None:
        payload["opt"] = opt
    return content_key(payload, graph=graph)


@dataclass
class PlanCacheEntry:
    """Memoized profile of one plan: its analysis and identity."""

    stats: PipelineStats
    timing: PipelineTiming
    info: PlanInfo


class PlanCache:
    """Bounded LRU over :class:`PlanCacheEntry`, with hit/miss counters."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, PlanCacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: str, **labels: str) -> PlanCacheEntry | None:
        """Look up a fingerprint; counts (and publishes) the hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._publish("plan_cache_miss", labels)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._publish("plan_cache_hit", labels)
        return entry

    def put(self, key: str, entry: PlanCacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard_model(self, model: str) -> None:
        """Drop every entry of ``model`` (its spec changed under its name)."""
        for key in [k for k, e in self._entries.items() if e.info.model == model]:
            del self._entries[key]

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> dict:
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def publish(self, registry=None) -> None:
        """Publish the cache's state into a metrics registry (the installed
        one by default; no-op when none).

        Materializes both per-lookup counters — ``plan_cache_hit`` and
        ``plan_cache_miss`` — even at zero, so every consumer (``repro
        serve --metrics-out``, ``run_system`` sweeps) exposes the same
        counter set regardless of which events actually fired, plus
        ``plan_cache_{hits,misses,evictions,entries}`` gauges carrying the
        cache's lifetime state.
        """
        registry = registry if registry is not None else get_registry()
        if registry is None:
            return
        registry.counter("plan_cache_hit")
        registry.counter("plan_cache_miss")
        snap = self.snapshot()
        registry.gauge("plan_cache_entries").set(snap["entries"])
        registry.gauge("plan_cache_hits").set(snap["hits"])
        registry.gauge("plan_cache_misses").set(snap["misses"])
        registry.gauge("plan_cache_evictions").set(snap["evictions"])

    # ------------------------------------------------------------------
    @staticmethod
    def _publish(name: str, labels: dict) -> None:
        registry = get_registry()
        if registry is not None:
            registry.counter(name, **labels).inc()


#: process-wide cache, enabled by default (set to None to disable)
_PLAN_CACHE: PlanCache | None = PlanCache()


def get_plan_cache() -> PlanCache | None:
    """The installed process-wide plan cache (None = caching disabled)."""
    return _PLAN_CACHE


def set_plan_cache(cache: PlanCache | None) -> PlanCache | None:
    """Install (or disable with None) the plan cache; returns the previous."""
    global _PLAN_CACHE
    previous = _PLAN_CACHE
    _PLAN_CACHE = cache
    return previous
