"""Regenerators for the paper's evaluation figures (8-12).

Each returns a :class:`~repro.bench.report.TableResult` whose rows are the
figure's data series (we render figures as tables of series, since the
environment is headless).
"""

from __future__ import annotations

import numpy as np

from ..frameworks import FeatGraphSystem, GNNAdvisorSystem, TLPGNNEngine
from ..graph.datasets import DATASET_ORDER, FIG8_SEVEN, LARGE_FOUR
from ..gpusim.scheduler import software_pool_schedule
from ..mp import model_features
from .harness import BenchConfig, get_dataset, make_features, profile_system
from .report import TableResult, fmt_mb, fmt_pct

__all__ = ["fig8", "fig9", "fig10", "fig11", "fig12", "ablation_series"]

#: Figure 11/12 default dataset grid (immutable so it can be a default arg)
LARGE_FOUR_T = tuple(LARGE_FOUR)


def fig8(config: BenchConfig | None = None) -> TableResult:
    """Figure 8: GNNAdvisor atomic-write traffic for GCN and GIN."""
    config = config or BenchConfig(feat_dim=32)
    headers = ["Model", *FIG8_SEVEN]
    rows, records = [], []
    for model in ("gcn", "gin"):
        row = [model.upper()]
        for abbr in FIG8_SEVEN:
            ds = get_dataset(abbr, config)
            res = profile_system(GNNAdvisorSystem(), model, ds, config)
            assert res is not None
            row.append(fmt_mb(res.report.mem_atomic_store_bytes))
            records.append(
                {
                    "model": model,
                    "dataset": abbr,
                    "atomic_bytes": res.report.mem_atomic_store_bytes,
                }
            )
        rows.append(row)
    return TableResult(
        exp_id="Figure 8",
        title="GNNAdvisor atomic-write memory traffic (GCN / GIN)",
        headers=headers,
        rows=rows,
        records=records,
    )


def fig9(config: BenchConfig | None = None) -> TableResult:
    """Figure 9: achieved occupancy, FeatGraph vs TLPGNN (GCN)."""
    config = config or BenchConfig(feat_dim=32)
    headers = ["System", *DATASET_ORDER, "Average"]
    rows, records = [], []
    for name, factory in (("FeatGraph", FeatGraphSystem), ("TLPGNN", TLPGNNEngine)):
        vals = []
        for abbr in DATASET_ORDER:
            ds = get_dataset(abbr, config)
            res = profile_system(factory(), "gcn", ds, config)
            assert res is not None
            vals.append(res.report.achieved_occupancy)
            records.append(
                {"system": name, "dataset": abbr, "occupancy": vals[-1]}
            )
        rows.append(
            [name, *(fmt_pct(v) for v in vals), fmt_pct(np.mean(vals))]
        )
        records.append(
            {"system": name, "dataset": "average", "occupancy": float(np.mean(vals))}
        )
    return TableResult(
        exp_id="Figure 9",
        title="Achieved occupancy of the GCN convolution",
        headers=headers,
        rows=rows,
        records=records,
    )


#: Figure 10 ablation stages, applied cumulatively over the edge-centric
#: baseline (the paper's Baseline/TLP/Hybrid/Cache/Fusion bars).
ABLATION_STAGES: dict[str, dict] = {
    "Baseline": dict(two_level=False, hybrid=False, register_cache=False, fusion=False),
    "+TLP": dict(two_level=True, hybrid=False, register_cache=False, fusion=False),
    "+Hybrid": dict(two_level=True, hybrid=True, register_cache=False, fusion=False),
    "+Cache": dict(two_level=True, hybrid=True, register_cache=True, fusion=False),
    "+Fusion": dict(two_level=True, hybrid=True, register_cache=True, fusion=True),
}


def ablation_series(
    model: str, abbr: str, config: BenchConfig, *, stages: dict | None = None
) -> dict[str, float]:
    """Runtime (ms) of each cumulative ablation stage for one cell."""
    stages = stages or ABLATION_STAGES
    ds = get_dataset(abbr, config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    softmax = model_features(model).softmax
    out: dict[str, float] = {}
    for name, toggles in stages.items():
        if name == "+Fusion" and not softmax:
            continue  # fusion only changes the attention (softmax) pipeline
        res = profile_system(TLPGNNEngine(**toggles), model, ds, config, X=X)
        assert res is not None
        out[name] = res.runtime_ms
    return out


def fig10(
    config: BenchConfig | None = None,
    *,
    models: tuple[str, ...] = ("gcn", "gin", "sage", "gat"),
    datasets: tuple[str, ...] | None = None,
) -> TableResult:
    """Figure 10: per-technique speedups over the edge-centric baseline."""
    config = config or BenchConfig(feat_dim=32)
    datasets = tuple(datasets or DATASET_ORDER)
    headers = ["Model", "Data", "+TLP", "+Hybrid", "+Cache", "+Fusion", "Total"]
    rows, records = [], []
    for model in models:
        for abbr in datasets:
            series = ablation_series(model, abbr, config)
            base = series["Baseline"]
            stage_names = [s for s in series if s != "Baseline"]
            incr = {}
            prev = base
            for s in stage_names:
                incr[s] = prev / series[s]
                prev = series[s]
            total = base / series[stage_names[-1]]
            rows.append(
                [
                    model.upper() if model != "sage" else "Sage",
                    abbr,
                    *(
                        f"{incr[s]:.2f}x" if s in incr else "-"
                        for s in ("+TLP", "+Hybrid", "+Cache", "+Fusion")
                    ),
                    f"{total:.1f}x",
                ]
            )
            records.append(
                {"model": model, "dataset": abbr, "total": total, **incr,
                 "baseline_ms": base}
            )
    return TableResult(
        exp_id="Figure 10",
        title="Technique benefits: cumulative speedup over edge-centric baseline",
        headers=headers,
        rows=rows,
        records=records,
    )


def fig11(
    config: BenchConfig | None = None,
    *,
    models: tuple[str, ...] = ("gcn", "gin", "sage", "gat"),
    datasets: tuple[str, ...] = LARGE_FOUR_T,
    block_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
    threads_per_block: int = 512,
    step: int = 2,
) -> TableResult:
    """Figure 11: scalability against thread count (blocks × 512 threads).

    The resident grid is clamped to ``blocks`` persistent blocks pulling
    from the software task pool; speedups are relative to one block.

    Runs at *full dataset size*: the vertex-parallel cost model depends only
    on the degree sequence, which
    :func:`repro.graph.datasets.sample_degree_sequence` produces without
    materializing hundred-million-edge arrays — so this figure needs neither
    dataset nor device scaling.
    """
    from ..graph.datasets import sample_degree_sequence
    from ..gpusim.warpcost import warp_cycles as _warp_cycles
    from ..kernels.tlpgnn import per_vertex_counters

    config = config or BenchConfig(feat_dim=32)
    spec = config.spec
    warps_per_block = threads_per_block // spec.threads_per_warp
    headers = ["Model", "Data", *(str(b) for b in block_counts)]
    rows, records = [], []
    degree_seqs = {
        abbr: sample_degree_sequence(abbr, seed=config.seed) for abbr in datasets
    }
    for model in models:
        features = model_features(model)
        for abbr in datasets:
            degrees = degree_seqs[abbr]
            counters = per_vertex_counters(
                degrees,
                config.feat_dim,
                edge_scalar_loads=int(features.scale != "none"),
                attention=features.softmax,
                mean_reduce=features.op == "mean",
            )
            cycles = _warp_cycles(
                spec,
                instructions=counters["instructions"].astype(np.float64),
                requests=(
                    counters["load_requests"] + counters["store_requests"]
                ).astype(np.float64),
                sectors=(
                    counters["l1_load_sectors"] + counters["l1_store_sectors"]
                ).astype(np.float64),
            )
            # full-size DRAM floor: the roofline that bends the curve at
            # high thread counts, exactly like the paper's GAT panel
            from ..gpusim.memory import cached_dram_sectors
            from ..kernels.base import feature_row_sectors

            n, E = degrees.size, int(degrees.sum())
            SF = feature_row_sectors(config.feat_dim)
            dram_sectors = (
                cached_dram_sectors(E * SF, n * SF, spec.l2_bytes)
                + E // 8  # streamed index/weight arrays
                + n * SF  # output rows
            )
            bw_seconds = dram_sectors * 32 / spec.mem_bandwidth_bytes_per_s
            times = []
            for blocks in block_counts:
                resident = blocks * warps_per_block
                sched = software_pool_schedule(
                    cycles, spec, step=step, resident_warps=resident
                )
                # bandwidth achievable with `resident` warps (Little's law)
                bw_cap_frac = min(
                    1.0, resident / (0.22 * spec.max_resident_warps)
                )
                times.append(
                    max(
                        sched.makespan_cycles / spec.clock_hz,
                        bw_seconds / max(bw_cap_frac, 1e-9),
                    )
                )
            speedups = [times[0] / t for t in times]
            rows.append(
                [model.upper() if model != "sage" else "Sage", abbr,
                 *(f"{s:.1f}x" for s in speedups)]
            )
            records.append(
                {
                    "model": model,
                    "dataset": abbr,
                    "blocks": list(block_counts),
                    "speedups": speedups,
                }
            )
    return TableResult(
        exp_id="Figure 11",
        title=f"Scalability vs thread count ({threads_per_block} threads/block), "
        "speedup over 1 block",
        headers=headers,
        rows=rows,
        records=records,
    )


def fig12(
    config: BenchConfig | None = None,
    *,
    models: tuple[str, ...] = ("gcn", "gin", "sage", "gat"),
    datasets: tuple[str, ...] = LARGE_FOUR_T,
    feat_sizes: tuple[int, ...] = (16, 32, 64, 128, 256, 512),
) -> TableResult:
    """Figure 12: normalized runtime against feature size (vs size 16)."""
    base_cfg = config or BenchConfig()
    headers = ["Model", "Data", *(str(f) for f in feat_sizes)]
    rows, records = [], []
    for model in models:
        for abbr in datasets:
            times = []
            for f in feat_sizes:
                cfg = BenchConfig(
                    feat_dim=f, max_edges=base_cfg.max_edges, seed=base_cfg.seed,
                    spec=base_cfg.spec,
                )
                ds = get_dataset(abbr, cfg)
                res = profile_system(TLPGNNEngine(), model, ds, cfg)
                assert res is not None
                times.append(res.report.gpu_time_ms)
            norm = [t / times[0] for t in times]
            rows.append(
                [model.upper() if model != "sage" else "Sage", abbr,
                 *(f"{v:.1f}x" for v in norm)]
            )
            records.append(
                {
                    "model": model,
                    "dataset": abbr,
                    "feat_sizes": list(feat_sizes),
                    "normalized": norm,
                    "times_ms": times,
                }
            )
    return TableResult(
        exp_id="Figure 12",
        title="Scalability vs feature size: runtime normalized to size 16",
        headers=headers,
        rows=rows,
        records=records,
    )
