"""Profiling never executes, and the plan-cache key reads no feature value.

``GNNSystem.profile`` lowers, optimizes and costs a cell; only
``GNNSystem.run`` computes its output.  Serving and the paper's tables and
figures read profiles only, so they must run with the executor gone.  The
plan cache holds profiles, and its key carries the features' shape and
dtype, not their bytes; that is sound only because no modeled counter or
time reads a feature value, which the second class checks cell by cell.
"""

import dataclasses

import numpy as np
import pytest

import repro.frameworks.base as base
from repro.bench import (
    BenchConfig,
    fig8,
    fig9,
    fig10,
    fig12,
    get_dataset,
    make_features,
    table5,
)
from repro.frameworks import SYSTEMS
from repro.models import MODEL_NAMES
from repro.opt import TunedPlanStore, set_tuned_store
from repro.plan import PlanCacheEntry, get_plan_cache
from repro.serve import ServableModel, ServeConfig, serve_trace

CONFIG = BenchConfig(max_edges=60_000, seed=7)


@pytest.fixture
def no_execution(monkeypatch):
    """``execute_plan``, where ``frameworks.base`` binds it, raises."""

    def refuse(plan):
        raise AssertionError(f"{plan.pipeline_name} executed while profiling")

    monkeypatch.setattr(base, "execute_plan", refuse)


@pytest.fixture
def fresh_tuned_store():
    previous = set_tuned_store(TunedPlanStore())
    yield
    set_tuned_store(previous)


@pytest.mark.usefixtures("no_execution")
class TestProfilingNeverExecutes:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_every_system_profiles_cr(self, name):
        dataset = get_dataset("CR", CONFIG)
        X = make_features(dataset.graph.num_vertices, CONFIG.feat_dim, seed=7)
        system = SYSTEMS[name]()
        models = [m for m in MODEL_NAMES if system.supports(m)]
        assert models
        for model in models:
            prof = system.profile(model, dataset, X, CONFIG.spec_for(dataset))
            assert prof.runtime_ms > 0 and not prof.plan.cached
            assert not hasattr(prof, "output")
        with pytest.raises(AssertionError, match="executed while profiling"):
            system.run(models[0], dataset, X, CONFIG.spec_for(dataset))

    @pytest.mark.parametrize("job", ["full", "targets"])
    def test_servable_serves_a_trace(self, job):
        dataset = get_dataset("CR", CONFIG)
        servable = ServableModel(
            SYSTEMS["TLPGNN"](), "gcn", dataset, feat_dim=CONFIG.feat_dim,
            spec=CONFIG.spec_for(dataset), seed=CONFIG.seed,
        )
        cfg = ServeConfig(
            rate_hz=0.5 / servable.offline_runtime_s, num_requests=24,
            job=job, max_batch=4, num_streams=2,
        )
        report = serve_trace(servable, cfg)
        assert report.completed == report.arrived == 24

    @pytest.mark.parametrize(
        "regenerate", [table5, fig8, fig9, fig10, fig12],
        ids=lambda fn: fn.__name__,
    )
    def test_regenerator_runs(self, regenerate):
        assert regenerate(CONFIG).rows

    def test_cache_entry_holds_no_array(self):
        dataset = get_dataset("CR", CONFIG)
        X = make_features(dataset.graph.num_vertices, CONFIG.feat_dim, seed=7)
        prof = SYSTEMS["TLPGNN"]().profile("gcn", dataset, X)
        entry = get_plan_cache().get(prof.plan.fingerprint)
        assert isinstance(entry, PlanCacheEntry)
        for field in dataclasses.fields(entry):
            assert not isinstance(getattr(entry, field.name), np.ndarray), field


@pytest.mark.usefixtures("fresh_tuned_store")
class TestProfileReadsNoFeatureValue:
    """From an empty cache, two feature matrices of one shape give the
    same profile, in every (system, model, opt) cell."""

    @pytest.mark.parametrize("opt", ["off", "safe", "search"])
    @pytest.mark.parametrize("abbr", ["CR", "PD", "OA"])
    def test_equal_profiles(self, abbr, opt):
        dataset = get_dataset(abbr, CONFIG)
        spec = CONFIG.spec_for(dataset)
        n = dataset.graph.num_vertices
        X0 = make_features(n, CONFIG.feat_dim, seed=7)
        X1 = -3.0 * make_features(n, CONFIG.feat_dim, seed=8)
        cache = get_plan_cache()
        cells = 0
        for name in sorted(SYSTEMS):
            for model in MODEL_NAMES:
                system = SYSTEMS[name]()
                if not system.supports(model):
                    continue
                profiles = []
                for X in (X0, X1):
                    cache.clear()
                    profiles.append(system.profile(model, dataset, X, spec, opt=opt))
                a, b = profiles
                cell = f"{name}/{model}/{abbr}/{opt}"
                assert a.report.as_dict() == b.report.as_dict(), cell
                assert a.plan == b.plan, cell
                cells += 1
        assert cells == 14
