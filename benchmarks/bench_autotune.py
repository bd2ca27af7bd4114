"""Auto-tuner vs. the paper's fixed TLPGNN configuration, per Table-4 cell.

For every Table-4 dataset the ``repro.opt`` tuner searches the
compute-kernel knob space of the TLPGNN gcn cell and must *rediscover or
beat* the paper's fixed configuration (hybrid assignment, 4 warps/block,
step 8, group_size 32) on modeled runtime — tie or win, never lose (the
lowered TLPGNN plan is that configuration and the search's incumbent,
which only a strictly faster candidate replaces, so losing is
structurally impossible; the assert documents the contract).

Each cell also reports won/lost/tied of the tuned plan against the
hand-enumerated ``bench_design_space.py`` space (thread / warp / cta4 /
cta8 vertex mappings + the edge-parallel looping scheme) — the gSuite-
style framework-independent tuning matrix.
"""

from repro.bench import BenchConfig, get_dataset, make_features
from repro.frameworks import SYSTEMS
from repro.graph.datasets import DATASET_ORDER
from repro.kernels import (
    EdgeParallelWarpKernel,
    PullCTAKernel,
    PullThreadKernel,
    TLPGNNKernel,
)
from repro.opt import AutoTuner, TunedPlanStore, kernel_from_knobs
from repro.opt.passes import modeled_runtime_s
from repro.opt.rewrites import _conv_index, _with_kernel

from conftest import MAX_EDGES, SEED

#: the hand-enumerated bench_design_space.py candidates (level-1 mappings
#: + the level-2 edge-parallel alternative)
DESIGN_SPACE = {
    "thread": lambda: PullThreadKernel(),
    "warp": lambda: TLPGNNKernel(assignment="hardware"),
    "cta4": lambda: PullCTAKernel(warps_per_block=4),
    "cta8": lambda: PullCTAKernel(warps_per_block=8),
    "edge_parallel": lambda: EdgeParallelWarpKernel(),
}

MODEL = "gcn"
#: large enough to cover the full mapping × launch-geometry space
#: (58 candidates), so every hand-enumerated design-space point is
#: provably inside the tuner's scored set
BUDGET = 64


def _tune_cell(abbr: str, config: BenchConfig) -> dict:
    ds = get_dataset(abbr, config)
    spec = config.spec_for(ds)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    system = SYSTEMS["TLPGNN"]()
    tuner = AutoTuner(budget=BUDGET, store=TunedPlanStore())
    result = tuner.tune(system, MODEL, ds, X, spec)

    # score the tuned plan against the hand-enumerated space on the same
    # (safe-optimized) plan skeleton the tuner searched
    plan = system.lower(MODEL, ds, X, spec)
    idx = _conv_index(plan)
    tuned_kernel = kernel_from_knobs(result.best_knobs, dataset=ds)
    tuned_ms = modeled_runtime_s(
        _with_kernel(plan, idx, tuned_kernel), spec
    ) * 1e3
    won = lost = tied = 0
    hand_ms = {}
    for label, factory in DESIGN_SPACE.items():
        kernel = factory()
        if not kernel.supports(plan.ops[idx].workload):
            continue
        ms = modeled_runtime_s(_with_kernel(plan, idx, kernel), spec) * 1e3
        hand_ms[label] = ms
        if tuned_ms < ms * (1 - 1e-9):
            won += 1
        elif tuned_ms > ms * (1 + 1e-9):
            lost += 1
        else:
            tied += 1
    return {
        "dataset": abbr,
        "fixed_ms": result.fixed_ms,
        "tuned_ms": result.tuned_ms,
        "speedup": result.speedup_vs_fixed,
        "iterations": result.iterations,
        "best": result.best_knobs,
        "won": won,
        "lost": lost,
        "tied": tied,
        "hand_ms": hand_ms,
    }


def test_autotune_table4(benchmark):
    config = BenchConfig(max_edges=MAX_EDGES, seed=SEED)

    def run():
        return [_tune_cell(abbr, config) for abbr in DATASET_ORDER]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = rows
    print()
    print(
        f"{'cell':>6} {'fixed_ms':>10} {'tuned_ms':>10} {'speedup':>8} "
        f"{'iters':>5} {'vs design space':>16}  winner"
    )
    for r in rows:
        best = r["best"]
        if best.get("kernel") == "tlpgnn":
            label = (
                f"tlpgnn[{best['assignment']},w={best['warps_per_block']},"
                f"s={best['step']},g={best['group_size']}]"
            )
        else:
            label = best.get("kernel", "?")
        print(
            f"{r['dataset']:>6} {r['fixed_ms']:>10.4f} {r['tuned_ms']:>10.4f} "
            f"{r['speedup']:>7.3f}x {r['iterations']:>5} "
            f"{r['won']:>4}W/{r['lost']}L/{r['tied']}T       {label}"
        )
    # the acceptance contract: tie or win on EVERY Table-4 dataset,
    # never lose to the paper's fixed configuration; never lose to the
    # hand-enumerated design-space candidates either
    for r in rows:
        assert r["tuned_ms"] <= r["fixed_ms"] * (1 + 1e-9), r["dataset"]
        assert r["iterations"] <= BUDGET, r["dataset"]
        assert r["lost"] == 0, (r["dataset"], r["hand_ms"])
