"""Generic parameter sweeps over the experiment harness.

The paper's figures are fixed sweeps; downstream users usually want their
own (feature size × system, scale sensitivity, model × dataset grids).
This module provides those as composable one-liners that produce the same
:class:`~repro.bench.report.TableResult` objects the built-in regenerators
return.
"""

from __future__ import annotations

from typing import Sequence

from ..frameworks import SYSTEMS
from ..opt import get_tuned_store
from ..plan import get_plan_cache
from .harness import BenchConfig, get_dataset, make_features, profile_system
from .report import TableResult, fmt_ms

__all__ = ["sweep_feature_dims", "sweep_scales", "sweep_grid"]


class _CacheCounts:
    """Delta of plan-cache + tuned-plan-store counters over one sweep
    (for the summary note)."""

    def __init__(self) -> None:
        cache = get_plan_cache()
        self._before = cache.snapshot() if cache is not None else None
        self._tuned_before = get_tuned_store().snapshot()

    def note(self) -> str:
        cache = get_plan_cache()
        # publish the full counter set into any installed registry — the
        # same set ``repro serve --metrics-out`` exposes
        store = get_tuned_store()
        store.publish()
        tuned_after = store.snapshot()
        tuned_hits = tuned_after["hits"] - self._tuned_before["hits"]
        plans_tuned = tuned_after["tuned"] - self._tuned_before["tuned"]
        tuner = (
            f"; tuner: {plans_tuned} plan(s) tuned, "
            f"{tuned_hits} tuned-plan hit(s)"
            if plans_tuned or tuned_hits
            else ""
        )
        if cache is None or self._before is None:
            return "plan cache: disabled" + tuner
        cache.publish()
        after = cache.snapshot()
        hits = after["hits"] - self._before["hits"]
        misses = after["misses"] - self._before["misses"]
        return f"plan cache: {hits} hit(s), {misses} miss(es)" + tuner


def sweep_feature_dims(
    model: str,
    abbr: str,
    *,
    feat_dims: Sequence[int] = (16, 32, 64, 128),
    systems: Sequence[str] = ("DGL", "FeatGraph", "TLPGNN"),
    config: BenchConfig | None = None,
) -> TableResult:
    """Runtime of each system as the feature dimension grows."""
    base = config or BenchConfig()
    counts = _CacheCounts()
    headers = ["System", *(str(f) for f in feat_dims)]
    rows, records = [], []
    for name in systems:
        row = [name]
        for f in feat_dims:
            cfg = BenchConfig(
                feat_dim=f, max_edges=base.max_edges, seed=base.seed,
                spec=base.spec, scale_device=base.scale_device,
            )
            ds = get_dataset(abbr, cfg)
            res = profile_system(SYSTEMS[name](), model, ds, cfg)
            ms = None if res is None else res.runtime_ms
            row.append("-" if ms is None else fmt_ms(ms))
            records.append(
                {"system": name, "feat_dim": f, "runtime_ms": ms}
            )
        rows.append(row)
    return TableResult(
        exp_id="sweep",
        title=f"{model.upper()} on {abbr}: runtime (ms) vs feature dimension",
        headers=headers,
        rows=rows,
        records=records,
        notes=counts.note(),
    )


def sweep_scales(
    model: str,
    abbr: str,
    *,
    max_edges: Sequence[int] = (250_000, 500_000, 1_000_000, 2_000_000),
    system: str = "TLPGNN",
    config: BenchConfig | None = None,
) -> TableResult:
    """Sensitivity of one system's modeled time to the stand-in scale.

    With device scaling on, modeled milliseconds should be roughly
    scale-invariant — this sweep is the self-check for that property.
    """
    base = config or BenchConfig()
    counts = _CacheCounts()
    headers = ["max_edges", "scale", "|V|", "|E|", "runtime_ms"]
    rows, records = [], []
    for cap in max_edges:
        cfg = BenchConfig(
            feat_dim=base.feat_dim, max_edges=cap, seed=base.seed,
            spec=base.spec, scale_device=base.scale_device,
        )
        ds = get_dataset(abbr, cfg)
        res = profile_system(SYSTEMS[system](), model, ds, cfg)
        ms = None if res is None else res.runtime_ms
        rows.append(
            [
                f"{cap:,}",
                f"{ds.scale:g}",
                f"{ds.graph.num_vertices:,}",
                f"{ds.graph.num_edges:,}",
                "-" if ms is None else fmt_ms(ms),
            ]
        )
        records.append(
            {"max_edges": cap, "scale": ds.scale, "runtime_ms": ms}
        )
    return TableResult(
        exp_id="sweep",
        title=f"{system} {model.upper()} on {abbr}: scale sensitivity",
        headers=headers,
        rows=rows,
        records=records,
        notes=counts.note(),
    )


def sweep_grid(
    *,
    models: Sequence[str] = ("gcn", "gat"),
    datasets: Sequence[str] = ("CR", "PI", "RD"),
    system: str = "TLPGNN",
    config: BenchConfig | None = None,
) -> TableResult:
    """model × dataset runtime grid for one system."""
    cfg = config or BenchConfig()
    counts = _CacheCounts()
    headers = ["Model", *datasets]
    rows, records = [], []
    for model in models:
        row = [model.upper()]
        for abbr in datasets:
            ds = get_dataset(abbr, cfg)
            X = make_features(ds.graph.num_vertices, cfg.feat_dim, seed=cfg.seed)
            res = profile_system(SYSTEMS[system](), model, ds, cfg, X=X)
            ms = None if res is None else res.runtime_ms
            row.append("-" if ms is None else fmt_ms(ms))
            records.append(
                {"model": model, "dataset": abbr, "runtime_ms": ms}
            )
        rows.append(row)
    return TableResult(
        exp_id="sweep",
        title=f"{system}: runtime (ms) grid",
        headers=headers,
        rows=rows,
        records=records,
        notes=counts.note(),
    )
