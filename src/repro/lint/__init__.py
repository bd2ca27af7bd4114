"""Static hazard, resource, and determinism analysis over ExecutionPlans.

The paper's central invariants are structural — warp-per-vertex
aggregation needs no atomics, scatter baselines *must* merge with
``atomicAdd``, and every launch must fit the device's occupancy limits
(§3.1, §3.4, Figure 8).  This package checks them at compile time, from
the declarative effect tables every kernel op carries:

* :mod:`~repro.lint.effects` — the effect-table vocabulary and the
  micro-sim cross-validation that keeps declarations honest,
* :mod:`~repro.lint.access` — the symbolic per-lane access-pattern IR:
  static coalescing classes, divergence sources, and bounds verification
  (ACC001 error, ACC002-ACC004 warnings, DIV001/DIV002, OOB001 error),
* :mod:`~repro.lint.hazards` — def-use races, fusion-boundary RAW
  hazards, plan-cache-unsafe rng reads (HAZ001-HAZ004, errors),
* :mod:`~repro.lint.resources` — launch envelopes vs GPUSpec limits
  (RES001-RES004 errors, RES005 low-occupancy warning),
* :mod:`~repro.lint.determinism` — atomic float reductions and rng reads
  as order-nondeterminism warnings (DET001/DET002),
* :mod:`~repro.lint.dataflow` — whole-plan shape/dtype abstract
  interpretation (SHAPE001-SHAPE004, errors) and liveness / peak-HBM
  bounds (LIVE001 error, LIVE002 warning), with the ``dead_transients``
  liveness export the optimizer's dead-intermediate elimination proves
  its legality with,
* :mod:`~repro.lint.sched` — cross-stream happens-before race detection
  over serving schedules (RACE001/RACE002 errors, RACE003 warning) plus
  the seeded vector-clock replay that pins the static verdicts,
* :mod:`~repro.lint.registry` — the one finding-code table (code →
  severity, summary, doc anchor) every analysis constructs through,
* :mod:`~repro.lint.report` — severity-ranked findings and rendering.

Entry points: :func:`lint_plan` (used by ``python -m repro lint``,
``repro plan --lint`` and the optimizer's gate around every rewrite);
lint any system's plan with ``lint_plan(system.lower(...))``.

Nothing in this package imports :mod:`repro.plan` — the plan IR imports
the effect vocabulary from here, and ``lint_plan`` duck-types its plan.
"""

from typing import Any

from ..gpusim.config import V100, GPUSpec
from .access import (
    COALESCED_SPR_MAX,
    SECTOR_CLASSES,
    AccessPattern,
    Affine,
    KernelAccess,
    access_findings,
    cross_validate_access,
    op_sector_class,
    sector_class,
)
from .dataflow import (
    BufferView,
    FootprintReport,
    LiveRange,
    PlanSymbols,
    dead_transients,
    infer_buffer_shapes,
    live_ranges,
    liveness_findings,
    peak_footprint,
    plan_symbols,
    shape_findings,
)
from .determinism import determinism_findings
from .effects import (
    TRANSIENT_PREFIX,
    BufferEffect,
    KernelEffects,
    LaunchEnvelope,
    conv_read_buffers,
    cross_validate_effects,
    effect_table,
    is_transient,
    reassociating_merges,
)
from .hazards import hazard_findings
from .registry import RULES, RuleInfo, explain, make_finding, rule_info
from .report import (
    Finding,
    LintReport,
    finding_rows,
    severity_rank,
    sort_findings,
)
from .resources import resource_findings
from .sarif import SARIF_SCHEMA, SARIF_VERSION, sarif_log, sarif_rules
from .sched import (
    ScheduledPlan,
    StreamSchedule,
    VectorClockChecker,
    cross_validate_races,
    default_shared,
    lint_schedule,
    race_findings,
    replay_schedule,
    serving_schedule,
    static_race_keys,
)

__all__ = [
    "COALESCED_SPR_MAX",
    "RULES",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "SECTOR_CLASSES",
    "AccessPattern",
    "Affine",
    "BufferEffect",
    "BufferView",
    "FootprintReport",
    "KernelAccess",
    "KernelEffects",
    "LaunchEnvelope",
    "LiveRange",
    "PlanSymbols",
    "RuleInfo",
    "ScheduledPlan",
    "StreamSchedule",
    "TRANSIENT_PREFIX",
    "VectorClockChecker",
    "Finding",
    "LintReport",
    "access_findings",
    "conv_read_buffers",
    "cross_validate_access",
    "cross_validate_effects",
    "cross_validate_races",
    "dead_transients",
    "default_shared",
    "determinism_findings",
    "effect_table",
    "explain",
    "finding_rows",
    "hazard_findings",
    "infer_buffer_shapes",
    "is_transient",
    "lint_plan",
    "lint_schedule",
    "live_ranges",
    "liveness_findings",
    "make_finding",
    "op_sector_class",
    "peak_footprint",
    "plan_symbols",
    "race_findings",
    "reassociating_merges",
    "replay_schedule",
    "resource_findings",
    "rule_info",
    "sarif_log",
    "sarif_rules",
    "sector_class",
    "serving_schedule",
    "severity_rank",
    "shape_findings",
    "sort_findings",
    "static_race_keys",
]


def lint_plan(plan: Any, spec: GPUSpec = V100) -> LintReport:
    """Run all six per-plan analyses over one lowered plan.

    (Cross-stream race detection needs a :class:`StreamSchedule`, not a
    single plan — see :func:`lint_schedule` / ``serve --lint``.)
    """
    findings = hazard_findings(plan)
    findings += resource_findings(plan, spec)
    findings += determinism_findings(plan)
    findings += access_findings(plan)
    findings += shape_findings(plan)
    findings += liveness_findings(plan, spec)
    label = f"{plan.system}/{plan.model} on {plan.graph_name}"
    return LintReport(plan_label=label, findings=tuple(sort_findings(findings)))
