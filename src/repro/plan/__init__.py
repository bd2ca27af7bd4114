"""Profile/execute split: the shared ExecutionPlan IR and plan cache.

Every framework model in :mod:`repro.frameworks` used to interleave
lowering, numeric execution, counter analysis, and costing inside its own
``_pipeline``.  This package separates those concerns into three stages
shared by all systems (and by :mod:`repro.multigpu` and
:mod:`repro.serve`):

1. **lower** — a system's :meth:`~repro.frameworks.base.GNNSystem._lower`
   rule turns (model, graph, features, spec, knobs) into an
   :class:`ExecutionPlan`: an ordered list of :class:`KernelOp` entries
   plus one :class:`ComputeStep` naming the convolution computed.
2. **execute** — :func:`execute_plan` produces the output features: the
   exact reference aggregation of the compute step's workload, the same
   function for every system.
3. **analyze/cost** — :func:`model_plan` composes :func:`analyze_plan` +
   :func:`time_parts` + :func:`cost_plan` into ``KernelStats``/
   ``ScheduleResult``/``KernelTiming`` through one shared path (the
   single source of truth for ``dispatch_seconds`` handling).

Stages 1 and 3 make a *profile*, and ``GNNSystem.profile`` stops
there; ``GNNSystem.run`` adds stage 2.  Profiles are memoized in a
bounded :class:`PlanCache` keyed by :func:`plan_fingerprint` — a content
hash of graph + feature shape and dtype + model + system knobs + device
spec — so warm-cache serving skips lowering and re-analysis entirely.
Every ``profile`` and ``run`` goes through the cache, traced or not: the
key is its only lookup rule.
"""

from .analyzer import analyze_plan, cost_plan, model_plan, time_parts
from .cache import (
    PlanCache,
    PlanCacheEntry,
    get_plan_cache,
    plan_fingerprint,
    set_plan_cache,
)
from .executor import execute_plan
from .ir import ComputeStep, ExecutionPlan, KernelOp, PlanInfo, plan_for_kernel

__all__ = [
    "KernelOp",
    "ComputeStep",
    "ExecutionPlan",
    "PlanInfo",
    "plan_for_kernel",
    "execute_plan",
    "analyze_plan",
    "time_parts",
    "cost_plan",
    "model_plan",
    "PlanCache",
    "PlanCacheEntry",
    "plan_fingerprint",
    "get_plan_cache",
    "set_plan_cache",
]
