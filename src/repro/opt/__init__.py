"""repro.opt: the optimize stage between lower and execute.

A pass pipeline over the :class:`~repro.plan.ExecutionPlan` IR (dead-
intermediate elimination, elementwise fusion, and one kernel search over
the workload mapping and launch geometry) whose legality comes from the
``repro.lint`` effect tables and whose profit comes from the shared
``cost_plan`` model, plus an auto-tuner that runs the same search once
per cell and persists its decision in a :class:`TunedPlanStore`.
Entry points: ``GNNSystem.profile(opt=...)`` and ``GNNSystem.run(opt=...)``,
``repro opt`` / ``repro tune`` on the CLI,
and :func:`optimize_plan` / :class:`AutoTuner` as a library.
"""

from .agreement import microsim_cycles, rank_agreement
from .passes import (
    OPT_LEVELS,
    IllegalRewriteError,
    PassContext,
    PassPipeline,
    PassRecord,
    PlanPass,
    default_pipeline,
    error_keys,
    modeled_runtime_s,
    optimize_plan,
)
from .rewrites import (
    ApplyTunedKnobs,
    DeadIntermediateElimination,
    ElementwiseFusion,
    KernelSearch,
    kernel_from_knobs,
    knobs_for_kernel,
)
from .tuner import (
    PAPER_FIXED_KNOBS,
    TUNER_VERSION,
    AutoTuner,
    TunedPlanStore,
    TuningResult,
    get_tuned_store,
    set_tuned_store,
    tuning_key,
)

__all__ = [
    "OPT_LEVELS",
    "IllegalRewriteError",
    "PassContext",
    "PassPipeline",
    "PassRecord",
    "PlanPass",
    "default_pipeline",
    "error_keys",
    "modeled_runtime_s",
    "optimize_plan",
    "ApplyTunedKnobs",
    "DeadIntermediateElimination",
    "ElementwiseFusion",
    "KernelSearch",
    "kernel_from_knobs",
    "knobs_for_kernel",
    "PAPER_FIXED_KNOBS",
    "TUNER_VERSION",
    "AutoTuner",
    "TunedPlanStore",
    "TuningResult",
    "get_tuned_store",
    "set_tuned_store",
    "tuning_key",
    "microsim_cycles",
    "rank_agreement",
]
