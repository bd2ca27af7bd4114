"""Benchmark harness: regenerates every table and figure of the paper's
evaluation section (Tables 1-5, Figures 8-12) and judges its shape claims."""

from .figures import ABLATION_STAGES, ablation_series, fig8, fig9, fig10, fig11, fig12
from .harness import (
    GOLDEN_DATASETS,
    GOLDEN_MODELS,
    BenchConfig,
    Cell,
    get_dataset,
    grid_cells,
    load_cell,
    make_features,
    run_comparison,
    run_system,
    walk_grid,
)
from .report import TableResult, render_table
from .serving import SERVING_SYSTEMS, serving_scenario, sustained_rate
from .sweep import sweep_feature_dims, sweep_grid, sweep_scales
from .tables import design_space, table1, table2, table3, table4, table5
from .validate import CLAIMS, ClaimResult, judge_result, select_claims, validate_claims

__all__ = [
    "BenchConfig",
    "Cell",
    "GOLDEN_DATASETS",
    "GOLDEN_MODELS",
    "get_dataset",
    "grid_cells",
    "load_cell",
    "make_features",
    "walk_grid",
    "run_system",
    "run_comparison",
    "TableResult",
    "render_table",
    "serving_scenario",
    "sustained_rate",
    "SERVING_SYSTEMS",
    "sweep_feature_dims",
    "sweep_scales",
    "sweep_grid",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "design_space",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablation_series",
    "validate_claims",
    "judge_result",
    "select_claims",
    "ClaimResult",
    "CLAIMS",
    "ABLATION_STAGES",
]

#: every experiment regenerator, by paper id
ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
}
