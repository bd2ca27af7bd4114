"""Regenerators for the paper's Tables 1-5."""

from __future__ import annotations

from ..frameworks import DGLSystem, FeatGraphSystem, GNNAdvisorSystem, TLPGNNEngine
from ..graph.datasets import DATASET_ORDER, DATASETS
from ..kernels import (
    EdgeCentricKernel,
    EdgeParallelWarpKernel,
    NeighborGroupKernel,
    PullCTAKernel,
    PullThreadKernel,
    PushKernel,
    TLPGNNKernel,
)
from ..kernels.fusion import three_kernel_gat_stats
from ..models import build_conv
from ..plan import cost_plan, time_parts
from .harness import BenchConfig, get_dataset, make_features, profile_system
from .report import TableResult, fmt_mb, fmt_ms, fmt_pct

__all__ = ["table1", "table2", "table3", "table4", "table5", "design_space"]


def _kernel_metrics(kernel, workload, spec) -> dict:
    res = kernel.execute(workload, spec)
    t = res.timing
    s = res.stats
    return {
        "kernel": kernel.name,
        "runtime_ms": t.runtime_seconds * 1e3,
        "gpu_ms": t.gpu_seconds * 1e3,
        "load_bytes": s.load_bytes,
        "atomic_bytes": s.atomic_bytes,
        "stall": t.stall_scoreboard_cycles,
        "sm_util": t.sm_utilization,
        "occupancy": t.occupancy,
        "sectors_per_request": s.sectors_per_request,
        "l1_hit_est": max(0.0, 1.0 - s.total_sectors / max(s.l1_total_sectors, 1)),
        "atomic_ops": s.atomic_ops,
    }


def table1(config: BenchConfig | None = None) -> TableResult:
    """Table 1: push vs edge-centric vs GNNAdvisor vs pull, GCN on
    ovcar_8h-like, feature size 128."""
    config = config or BenchConfig(feat_dim=128)
    ds = get_dataset("OH", config)
    X = make_features(ds.graph.num_vertices, 128, seed=config.seed)
    workload = build_conv("gcn", ds.graph, X)
    spec = config.spec_for(ds)
    kernels = {
        "Push": PushKernel(),
        "Edge": EdgeCentricKernel(),
        "GnnA.": NeighborGroupKernel(),
        "Pull": TLPGNNKernel(assignment="hardware"),
    }
    recs = {name: _kernel_metrics(k, workload, spec) for name, k in kernels.items()}
    headers = ["Metrics", *kernels]
    rows = [
        ["Runtime (ms)", *(fmt_ms(recs[k]["runtime_ms"]) for k in kernels)],
        ["Mem load traffic", *(fmt_mb(recs[k]["load_bytes"]) for k in kernels)],
        ["Mem atomic store traffic",
         *(fmt_mb(recs[k]["atomic_bytes"]) for k in kernels)],
        ["Stall long scoreboard (cyc)",
         *(f"{recs[k]['stall']:.1f}" for k in kernels)],
        ["SM utilization", *(fmt_pct(recs[k]["sm_util"]) for k in kernels)],
    ]
    return TableResult(
        exp_id="Table 1",
        title="Atomic-operation impact (GCN, ovcar_8h-like, feat 128)",
        headers=headers,
        rows=rows,
        records=list(recs.values()),
        notes=f"graph: |V|={ds.graph.num_vertices}, |E|={ds.graph.num_edges} "
        f"(scale {ds.scale:g} of Ovcar-8h)",
    )


def table2(config: BenchConfig | None = None) -> TableResult:
    """Table 2: one-thread-per-vertex vs half-warp-per-vertex, feat 128."""
    config = config or BenchConfig(feat_dim=128)
    ds = get_dataset("OH", config)
    X = make_features(ds.graph.num_vertices, 128, seed=config.seed)
    workload = build_conv("gcn", ds.graph, X)
    spec = config.spec_for(ds)
    kernels = {
        "One Thread": PullThreadKernel(),
        "Half Warp": TLPGNNKernel(group_size=16, assignment="hardware"),
    }
    recs = {n: _kernel_metrics(k, workload, spec) for n, k in kernels.items()}
    headers = ["Metrics", *kernels]
    rows = [
        ["Runtime (ms)", *(fmt_ms(recs[k]["runtime_ms"]) for k in kernels)],
        ["Sector per request",
         *(f"{recs[k]['sectors_per_request']:.1f}" for k in kernels)],
        ["L1 cache hit", *(fmt_pct(recs[k]["l1_hit_est"]) for k in kernels)],
        ["Long scoreboard (cyc)", *(f"{recs[k]['stall']:.1f}" for k in kernels)],
    ]
    return TableResult(
        exp_id="Table 2",
        title="Coalescing impact: thread- vs half-warp-per-vertex (GCN, feat 128)",
        headers=headers,
        rows=rows,
        records=list(recs.values()),
    )


def table3(config: BenchConfig | None = None) -> TableResult:
    """Table 3: DGL (18 kernels) vs three-kernel vs one-kernel GAT
    convolution on reddit-like, feature size 32."""
    config = config or BenchConfig(feat_dim=32)
    ds = get_dataset("RD", config)
    X = make_features(ds.graph.num_vertices, 32, seed=config.seed)
    spec = config.spec_for(ds)

    dgl = profile_system(DGLSystem(), "gat", ds, config, X=X)
    assert dgl is not None
    dgl_rep = dgl.report

    workload = build_conv("gat", ds.graph, X)
    pipe3, parts3 = three_kernel_gat_stats(workload, spec)
    timings3 = time_parts(parts3, spec)
    three = cost_plan(pipe3, timings3, spec)

    tlp = profile_system(TLPGNNEngine(), "gat", ds, config, X=X)
    assert tlp is not None
    one_rep = tlp.report

    cols = {
        "DGL": {
            "kernels": dgl_rep.kernel_launches,
            "runtime": dgl_rep.runtime_ms,
            "gpu": dgl_rep.gpu_time_ms,
            "usage": dgl_rep.global_mem_usage_bytes,
            "traffic": dgl_rep.mem_total_bytes,
            "stall": dgl_rep.stall_long_scoreboard,
            "sm": dgl_rep.sm_utilization,
        },
        "Three-Kernel": {
            "kernels": pipe3.num_kernels,
            "runtime": (three.runtime_seconds) * 1e3,
            "gpu": three.gpu_seconds * 1e3,
            "usage": pipe3.total_workspace_bytes,
            "traffic": pipe3.total_bytes,
            "stall": three.avg_stall_scoreboard,
            "sm": three.avg_sm_utilization,
        },
        "One-Kernel": {
            "kernels": one_rep.kernel_launches,
            "runtime": one_rep.runtime_ms,
            "gpu": one_rep.gpu_time_ms,
            "usage": one_rep.global_mem_usage_bytes,
            "traffic": one_rep.mem_total_bytes,
            "stall": one_rep.stall_long_scoreboard,
            "sm": one_rep.sm_utilization,
        },
    }
    headers = ["Metrics", *cols]
    rows = [
        ["GPU kernel launches", *(str(c["kernels"]) for c in cols.values())],
        ["Runtime (ms)", *(fmt_ms(c["runtime"]) for c in cols.values())],
        ["GPU time (ms)", *(fmt_ms(c["gpu"]) for c in cols.values())],
        ["Runtime - GPU time (ms)",
         *(fmt_ms(c["runtime"] - c["gpu"]) for c in cols.values())],
        ["Global mem usage", *(fmt_mb(c["usage"]) for c in cols.values())],
        ["Global mem traffic", *(fmt_mb(c["traffic"]) for c in cols.values())],
        ["Stall long scoreboard (cyc)",
         *(f"{c['stall']:.1f}" for c in cols.values())],
        ["Average SM utilization", *(fmt_pct(c["sm"]) for c in cols.values())],
    ]
    return TableResult(
        exp_id="Table 3",
        title="Kernel-launch impact: GAT convolution on reddit-like, feat 32",
        headers=headers,
        rows=rows,
        records=[{"config": k, **v} for k, v in cols.items()],
    )


def table4(config: BenchConfig | None = None) -> TableResult:
    """Table 4: dataset statistics (full-size specs + loaded stand-ins)."""
    config = config or BenchConfig()
    headers = [
        "Dataset (Abbr.)",
        "vertex #",
        "edge #",
        "avg deg",
        "loaded |V|",
        "loaded |E|",
        "loaded avg deg",
    ]
    rows, records = [], []
    for abbr in DATASET_ORDER:
        spec = DATASETS[abbr]
        ds = get_dataset(abbr, config)
        g = ds.graph
        rows.append(
            [
                f"{spec.full_name} ({abbr})",
                f"{spec.num_vertices:,}",
                f"{spec.num_edges:,}",
                f"{spec.avg_degree:.1f}",
                f"{g.num_vertices:,}",
                f"{g.num_edges:,}",
                f"{g.avg_degree:.1f}",
            ]
        )
        records.append({**g.stats(), "abbr": abbr, "scale": ds.scale})
    return TableResult(
        exp_id="Table 4",
        title="Graph benchmarks (paper spec vs loaded synthetic stand-in)",
        headers=headers,
        rows=rows,
        records=records,
    )


def table5(
    config: BenchConfig | None = None,
    *,
    models: tuple[str, ...] = ("gcn", "gin", "sage", "gat"),
    datasets: tuple[str, ...] | None = None,
) -> TableResult:
    """Table 5: the main comparison — execution times of the four systems
    over four models and eleven datasets (feature size 32)."""
    config = config or BenchConfig(feat_dim=32)
    datasets = tuple(datasets or DATASET_ORDER)
    headers = ["Model", "Data", "DGL", "GNNA.", "FeatG.", "TLPGNN", "Speedup"]
    rows, records = [], []
    systems = {
        "DGL": DGLSystem,
        "GNNA.": GNNAdvisorSystem,
        "FeatG.": FeatGraphSystem,
        "TLPGNN": TLPGNNEngine,
    }
    for model in models:
        for abbr in datasets:
            ds = get_dataset(abbr, config)
            X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
            times: dict[str, float | None] = {}
            for name, factory in systems.items():
                res = profile_system(factory(), model, ds, config, X=X)
                times[name] = None if res is None else res.runtime_ms
            baselines = [
                t for k, t in times.items() if k != "TLPGNN" and t is not None
            ]
            ours = times["TLPGNN"]
            speedup = min(baselines) / ours if baselines and ours else float("nan")
            rows.append(
                [
                    model.upper() if model != "sage" else "Sage",
                    abbr,
                    *(
                        "-" if times[k] is None else fmt_ms(times[k])
                        for k in ("DGL", "GNNA.", "FeatG.", "TLPGNN")
                    ),
                    f"{speedup:.1f}x",
                ]
            )
            records.append(
                {"model": model, "dataset": abbr, "speedup": speedup, **times}
            )
    return TableResult(
        exp_id="Table 5",
        title="Execution times (modeled ms) of TLPGNN vs DGL/GNNAdvisor/FeatGraph",
        headers=headers,
        rows=rows,
        records=records,
        notes="'-' marks cells the paper also leaves blank (unimplemented "
        "models / GNNAdvisor capacity failures on the 4 largest graphs).",
    )


def design_space(config: BenchConfig | None = None) -> TableResult:
    """The mapping choices behind the two-level paradigm, head to head on
    the GCN convolution: thread, warp or CTA per vertex on ovcar_8h-like
    (level 1, paper §4.2), and feature against edge parallelism inside the
    warp on pokec-like (level 2, §4.3)."""
    config = config or BenchConfig()
    levels = {
        1: ("OH", {
            "thread": PullThreadKernel(),
            "warp": TLPGNNKernel(assignment="hardware"),
            "cta4": PullCTAKernel(warps_per_block=4),
            "cta8": PullCTAKernel(warps_per_block=8),
        }),
        2: ("PI", {
            "feature": TLPGNNKernel(assignment="hardware"),
            "edge": EdgeParallelWarpKernel(),
        }),
    }
    rows, records = [], []
    for level, (abbr, kernels) in levels.items():
        ds = get_dataset(abbr, config)
        X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
        workload = build_conv("gcn", ds.graph, X)
        spec = config.spec_for(ds)
        for mapping, kernel in kernels.items():
            rec = _kernel_metrics(kernel, workload, spec)
            records.append({"level": level, "mapping": mapping, **rec})
            section = f"§4.{level + 1}"
            rows.append([section, abbr, mapping, rec["kernel"], fmt_ms(rec["gpu_ms"])])
    return TableResult(
        exp_id="Design space",
        title="Vertex mapping (§4.2) and within-warp looping (§4.3), GCN",
        headers=["Level", "Data", "Mapping", "Kernel", "GPU time (ms)"],
        rows=rows,
        records=records,
    )
