"""Perf-regression probes: the workloads behind ``repro regress``.

A *probe* is a small, deterministic workload whose metrics summarize one
axis of the reproduction's performance story:

* ``serving`` — TLPGNN serving gcn on CR through the full online pipeline
  (admission, micro-batching, streams) at a fixed load fraction of its
  offline service rate: latency percentiles, throughput, and the offline
  runtime itself.
* ``table5`` — the offline Table-5 core: each system's modeled runtime on
  the gcn/CR cell plus TLPGNN's speedup over the best baseline.
* ``autotune`` — the ``repro.opt`` tuner on the gcn/CR cell: modeled ms
  of the paper-fixed configuration, of the tuned winner, the
  tuned-vs-fixed speedup, and the measurement count (budget adherence).
  The tuned path is thereby part of the recorded perf trajectory.

The same probe code runs in three places, which is what makes the
trajectory comparable:

1. ``benchmarks/bench_serving.py`` / ``bench_table5_main.py`` call
   :func:`record_point` to append a trajectory point into the committed
   ``BENCH_serving.json`` / ``BENCH_table5.json`` trend stores;
2. CI's perf-smoke job records a point at its small scale and
3. ``repro regress`` recomputes the probe at HEAD and compares it with
   the latest point whose config fingerprint matches (scale, seed, spec)
   through :func:`repro.obs.trend.compare_metrics` — the comparison
   ``repro diff`` uses too.

Everything is modeled time on the simulated clock, so probe metrics are
bit-deterministic for a given config — counters must match exactly and
modeled floats within float noise (``rel=1e-9``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..frameworks import SYSTEMS
from ..obs.archive import config_fingerprint
from ..obs.trend import TrendDiff, TrendStore, git_rev
from ..serve import ServableModel, ServeConfig, serve_trace
from .harness import BenchConfig, get_dataset, make_features, profile_system

__all__ = [
    "ProbeResult",
    "PROBES",
    "serving_probe",
    "table5_probe",
    "autotune_probe",
    "default_store_path",
    "record_point",
    "compare_point",
]

#: probe workload constants — part of the probe's identity; bump the
#: revision when they change so stale trajectory points stop comparing
_PROBE_REV = 1
_DATASET = "CR"
_MODEL = "gcn"
#: offered load as a fraction of the servable's offline service rate
_LOAD_FRACTION = 0.5
_NUM_REQUESTS = 96


@dataclass(frozen=True)
class ProbeResult:
    """One probe run: flat numeric metrics + the config whose fingerprint
    scopes which trajectory points it may compare against."""

    name: str
    metrics: dict
    config: BenchConfig
    meta: dict

    @property
    def fingerprint(self) -> str:
        """The probe cell's archive fingerprint: scale, seed, spec, model
        and probe revision."""
        c = self.config
        return config_fingerprint(
            dataset=_DATASET, seed=c.seed, feat_dim=c.feat_dim,
            max_edges=c.max_edges, spec=c.spec_for(get_dataset(_DATASET, c)),
            model=_MODEL, system=f"probe:{self.name}:r{_PROBE_REV}",
        )


def serving_probe(config: BenchConfig) -> ProbeResult:
    """Serve TLPGNN/gcn/CR at half its offline service rate."""
    ds = get_dataset(_DATASET, config)
    spec = config.spec_for(ds)
    servable = ServableModel(
        SYSTEMS["TLPGNN"](), _MODEL, ds,
        feat_dim=config.feat_dim, spec=spec, seed=config.seed,
    )
    rate = _LOAD_FRACTION / servable.offline_runtime_s
    cfg = ServeConfig(
        rate_hz=rate,
        num_requests=_NUM_REQUESTS,
        max_batch=4,
        num_streams=2,
        max_concurrent=spec.max_concurrent_kernels,
        seed=config.seed,
    )
    report = serve_trace(servable, cfg)
    return ProbeResult(
        name="serving",
        metrics={
            "offline_runtime_ms": servable.offline_runtime_s * 1e3,
            "p50_ms": report.p50_ms,
            "p95_ms": report.p95_ms,
            "p99_ms": report.p99_ms,
            "mean_ms": report.mean_ms,
            "throughput_rps": report.throughput_rps,
            "completed": report.completed,
            "shed": report.shed,
        },
        config=config,
        meta={
            "system": "TLPGNN", "model": _MODEL, "dataset": _DATASET,
            "max_edges": config.max_edges, "num_requests": _NUM_REQUESTS,
            "load_fraction": _LOAD_FRACTION,
        },
    )


def table5_probe(config: BenchConfig) -> ProbeResult:
    """Each system's modeled runtime on the gcn/CR Table-5 cell."""
    ds = get_dataset(_DATASET, config)
    metrics: dict = {}
    for name in sorted(SYSTEMS):
        res = profile_system(SYSTEMS[name](), _MODEL, ds, config)
        if res is not None:
            metrics[f"{name}_runtime_ms"] = res.runtime_ms
    tlpgnn = metrics.get("TLPGNN_runtime_ms")
    baselines = [
        v for k, v in metrics.items() if k != "TLPGNN_runtime_ms"
    ]
    if tlpgnn and baselines:
        metrics["speedup"] = min(baselines) / tlpgnn
    return ProbeResult(
        name="table5",
        metrics=metrics,
        config=config,
        meta={
            "model": _MODEL, "dataset": _DATASET,
            "max_edges": config.max_edges,
        },
    )


#: tuner budget of the autotune probe (also its iteration-bound assert)
_TUNE_BUDGET = 16


def autotune_probe(config: BenchConfig) -> ProbeResult:
    """Tune the TLPGNN gcn/CR cell and record the tuner's outcome."""
    from ..opt import AutoTuner, TunedPlanStore

    ds = get_dataset(_DATASET, config)
    spec = config.spec_for(ds)
    X = make_features(
        ds.graph.num_vertices, config.feat_dim, seed=config.seed
    )
    # a private store: the probe must not leak tuned decisions into the
    # process-wide store (regress runs alongside other probes)
    tuner = AutoTuner(budget=_TUNE_BUDGET, store=TunedPlanStore())
    result = tuner.tune(SYSTEMS["TLPGNN"](), _MODEL, ds, X, spec)
    return ProbeResult(
        name="autotune",
        metrics={
            "fixed_ms": result.fixed_ms,
            "tuned_ms": result.tuned_ms,
            "speedup": result.speedup_vs_fixed,
            "iterations": float(result.iterations),
        },
        config=config,
        meta={
            "system": "TLPGNN", "model": _MODEL, "dataset": _DATASET,
            "max_edges": config.max_edges, "budget": _TUNE_BUDGET,
            "best_knobs": result.best_knobs,
        },
    )


PROBES = {
    "serving": serving_probe,
    "table5": table5_probe,
    "autotune": autotune_probe,
}


def default_store_path(name: str, root: str | Path = ".") -> Path:
    """The committed trend-store file for one probe (``BENCH_<name>.json``)."""
    return Path(root) / f"BENCH_{name}.json"


def record_point(
    name: str,
    config: BenchConfig,
    *,
    store_path: str | Path | None = None,
    timestamp: float | None = None,
) -> dict:
    """Run a probe and append its trajectory point; returns the point."""
    result = PROBES[name](config)
    store = TrendStore(store_path or default_store_path(name))
    return store.record(
        result.metrics,
        fingerprint=result.fingerprint,
        rev=git_rev(store.path.parent),
        meta=result.meta,
        timestamp=timestamp,
    )


def compare_point(
    name: str,
    config: BenchConfig,
    *,
    store_path: str | Path | None = None,
) -> TrendDiff | None:
    """Run a probe at HEAD and diff against the recorded trajectory.

    None = the store has no point with a matching config fingerprint
    (nothing to compare — record one first).
    """
    result = PROBES[name](config)
    store = TrendStore(store_path or default_store_path(name))
    return store.compare(
        result.metrics,
        fingerprint=result.fingerprint,
        rev=git_rev(store.path.parent),
    )
