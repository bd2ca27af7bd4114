"""Serving comparison: sustained throughput at a fixed p99 SLO (ISSUE 2).

Replays identical seeded open-loop traces against TLPGNN, DGL-sim, and
GNNAdvisor served through ``repro.serve`` (dynamic micro-batching, two
streams, bounded admission) and reports the highest offered rate each
system sustains with zero shed requests and p99 under the SLO.

Also measures the plan-cache host-side win (ISSUE 3): deploying the same
servable twice, the second offline profile hits the
:class:`repro.plan.PlanCache` and must cost measurably less wall time.
"""

import os
import time

from repro.bench import BenchConfig
from repro.bench.harness import get_dataset
from repro.bench.regress import default_store_path, record_point
from repro.bench.serving import serving_scenario
from repro.frameworks import TLPGNNEngine
from repro.plan import get_plan_cache
from repro.serve import ServableModel

from conftest import MAX_EDGES, SEED, run_and_report

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_serving_comparison(benchmark):
    cfg = BenchConfig(max_edges=MAX_EDGES, seed=SEED)
    result = run_and_report(benchmark, serving_scenario, cfg)
    by_cell = {
        (r["dataset"], r["system"]): r
        for r in result.records
        if r.get("supported")
    }
    # the acceptance claim: TLPGNN sustains strictly more load than
    # DGL-sim at the same p99 SLO on both datasets
    for abbr in ("CS", "CR"):
        assert (
            by_cell[(abbr, "TLPGNN")]["sustained_rps"]
            > by_cell[(abbr, "DGL")]["sustained_rps"]
        )


def test_plan_cache_warm_deploy_is_cheaper():
    """Cold vs warm ServableModel deployment: the warm offline profile is
    a plan-cache hit and costs less host wall time."""
    cfg = BenchConfig(max_edges=MAX_EDGES, seed=SEED)
    ds = get_dataset("CS", cfg)
    spec = cfg.spec_for(ds)
    cache = get_plan_cache()
    assert cache is not None
    cache.clear()

    def deploy():
        t0 = time.perf_counter()
        servable = ServableModel(
            TLPGNNEngine(), "gcn", ds,
            feat_dim=cfg.feat_dim, spec=spec, seed=cfg.seed,
        )
        servable.offline_timing
        return time.perf_counter() - t0, servable

    t_cold, cold = deploy()
    t_warm, warm = deploy()
    assert not cold.plan_info.cached
    assert warm.plan_info.cached
    assert cache.hits >= 1
    assert t_warm < t_cold
    print(
        f"\ncold deploy {t_cold * 1e3:.2f} ms, warm {t_warm * 1e3:.2f} ms "
        f"({t_cold / t_warm:.1f}x host win)"
    )


def test_record_serving_trajectory_point():
    """Append this run's serving-probe metrics to the BENCH_serving.json
    trend store (the perf-regression observatory's time series; ``repro
    regress`` compares HEAD against the latest matching point)."""
    cfg = BenchConfig(max_edges=MAX_EDGES, seed=SEED)
    point = record_point(
        "serving", cfg, store_path=default_store_path("serving", REPO_ROOT)
    )
    assert point["metrics"]["completed"] > 0
    assert point["fingerprint"]
    print(
        f"\nrecorded serving trajectory point at rev {point['rev']} "
        f"({len(point['metrics'])} metrics)"
    )
