"""Plan cache behavior: warm hits are transparent, bounds are enforced."""

import numpy as np
import pytest

from repro.frameworks import SYSTEMS, TLPGNNEngine
from repro.graph import erdos_renyi
from repro.mp import MessageSpec, ReduceSpec, register, unregister
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.tracer import Tracer, set_tracer
from repro.plan import (
    PlanCache,
    PlanCacheEntry,
    get_plan_cache,
    set_plan_cache,
)


def _features(graph, feat_dim=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((graph.num_vertices, feat_dim), dtype=np.float32)


class TestWarmHitTransparency:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("model", ["gcn", "gat"])
    def test_cold_and_warm_results_identical(self, small_random, name, model):
        system = SYSTEMS[name]()
        if not system.supports(model):
            pytest.skip(f"{name} does not implement {model}")
        X = _features(small_random)
        cache = get_plan_cache()
        cold = system.run(model, small_random, X)
        assert cache.misses >= 1 and cache.hits == 0
        warm = SYSTEMS[name]().run(model, small_random, X)
        assert cache.hits >= 1

        np.testing.assert_array_equal(cold.output, warm.output)
        assert cold.report.as_dict() == warm.report.as_dict()

        assert cold.plan is not None and not cold.plan.cached
        assert warm.plan is not None and warm.plan.cached
        assert warm.plan.fingerprint == cold.plan.fingerprint
        assert warm.plan.op_names == cold.plan.op_names

    def test_warm_output_is_a_private_copy(self, small_random):
        X = _features(small_random)
        system = TLPGNNEngine()
        cold = system.run("gcn", small_random, X)
        cold.output[:] = -1.0  # caller scribbles on its result
        warm = system.run("gcn", small_random, X)
        assert not np.array_equal(warm.output, cold.output)
        warm.output[:] = -2.0
        again = system.run("gcn", small_random, X)
        assert not np.array_equal(again.output, warm.output)

    def test_hit_and_miss_counters_published(self, small_random):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            X = _features(small_random)
            TLPGNNEngine().run("gcn", small_random, X)
            TLPGNNEngine().run("gcn", small_random, X)
        finally:
            set_registry(previous)
        by_name = {
            rec["name"]: rec["value"]
            for rec in registry.snapshot()
            if rec["name"].startswith("plan_cache")
        }
        assert by_name["plan_cache_miss"] == 1.0
        assert by_name["plan_cache_hit"] == 1.0

    def test_traced_warm_run_hits(self, small_random):
        """Traced and untraced runs see one cache: a traced warm run
        returns the untraced bytes, records one hit span carrying the
        cached modeled time, then the span that recomputes the output."""
        X = _features(small_random)
        cold = TLPGNNEngine().run("gcn", small_random, X)
        registry, tracer = MetricsRegistry(), Tracer()
        prev_registry, prev_tracer = set_registry(registry), set_tracer(tracer)
        try:
            warm = TLPGNNEngine().run("gcn", small_random, X)
        finally:
            set_registry(prev_registry)
            set_tracer(prev_tracer)
        np.testing.assert_array_equal(cold.output, warm.output)
        assert cold.report.as_dict() == warm.report.as_dict()
        assert warm.plan is not None and warm.plan.cached
        counts = {
            rec["name"]: rec["value"]
            for rec in registry.snapshot()
            if rec["name"].startswith("plan_cache")
        }
        assert counts == {"plan_cache_hit": 1.0}
        [hit, execute] = tracer.walk()
        assert hit.name == "plan.cache.hit"
        assert hit.modeled_seconds == warm.report.timing.runtime_seconds
        assert execute.name == "kernel.run"


class TestCacheBypass:
    def test_disabled_cache_still_runs(self, small_random):
        X = _features(small_random)
        previous = set_plan_cache(None)
        try:
            res = TLPGNNEngine().run("gcn", small_random, X)
        finally:
            set_plan_cache(previous)
        assert res.plan is not None and not res.plan.cached


class TestKeySensitivity:
    def test_different_knobs_do_not_collide(self, small_random):
        X = _features(small_random)
        cache = get_plan_cache()
        a = TLPGNNEngine().run("gcn", small_random, X)
        b = TLPGNNEngine(register_cache=False).run("gcn", small_random, X)
        assert cache.hits == 0 and cache.misses == 2
        assert a.plan.fingerprint != b.plan.fingerprint

    def test_different_features_do_not_collide(self, small_random):
        """Two feature matrices of one shape share the profile, and each
        run still returns the output of its own features."""
        cache = get_plan_cache()
        X0, X1 = _features(small_random, seed=0), _features(small_random, seed=1)
        a = TLPGNNEngine().run("gcn", small_random, X0)
        b = TLPGNNEngine().run("gcn", small_random, X1)
        assert cache.hits == 1 and cache.misses == 1
        assert b.plan.cached and b.report.as_dict() == a.report.as_dict()
        previous = set_plan_cache(None)
        try:
            cold = TLPGNNEngine().run("gcn", small_random, X1)
        finally:
            set_plan_cache(previous)
        np.testing.assert_array_equal(b.output, cold.output)
        assert not np.array_equal(a.output, b.output)


class TestReRegistration:
    def test_reregistered_model_is_not_served_stale_plans(self, small_random):
        """The key holds the model's name, so a spec re-registered under
        it must drop that name's entries (and only those): the max run
        is computed, not the cached sum."""
        X = _features(small_random)
        cache = get_plan_cache()
        TLPGNNEngine().run("gcn", small_random, X)
        register("stale", lambda: (MessageSpec(), ReduceSpec(op="sum")))
        try:
            summed = TLPGNNEngine().run("stale", small_random, X)
            register(
                "stale", lambda: (MessageSpec(), ReduceSpec(op="max")),
                replace=True,
            )
            maxed = TLPGNNEngine().run("stale", small_random, X)
            previous = set_plan_cache(PlanCache())
            try:
                fresh = TLPGNNEngine().run("stale", small_random, X)
            finally:
                set_plan_cache(previous)
        finally:
            unregister("stale")
        assert not maxed.plan.cached
        assert not np.array_equal(maxed.output, summed.output)
        np.testing.assert_array_equal(maxed.output, fresh.output)
        # unregister dropped the max entry; gcn's survived both
        assert len(cache) == 1
        assert TLPGNNEngine().run("gcn", small_random, X).plan.cached


class TestEviction:
    def test_eviction_respects_bound(self):
        cache = PlanCache(maxsize=3)
        previous = set_plan_cache(cache)
        try:
            system = TLPGNNEngine()
            graphs = [
                erdos_renyi(30, 90, seed=s, name=f"g{s}") for s in range(5)
            ]
            for g in graphs:
                system.run("gcn", g, _features(g))
        finally:
            set_plan_cache(previous)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.misses == 5

    def test_lru_order_keeps_recently_used(self):
        cache = PlanCache(maxsize=2)
        previous = set_plan_cache(cache)
        try:
            system = TLPGNNEngine()
            g0 = erdos_renyi(30, 90, seed=0, name="g0")
            g1 = erdos_renyi(30, 90, seed=1, name="g1")
            g2 = erdos_renyi(30, 90, seed=2, name="g2")
            X0, X1, X2 = _features(g0), _features(g1), _features(g2)
            system.run("gcn", g0, X0)
            system.run("gcn", g1, X1)
            system.run("gcn", g0, X0)  # refresh g0
            system.run("gcn", g2, X2)  # evicts g1, not g0
            system.run("gcn", g0, X0)
        finally:
            set_plan_cache(previous)
        assert cache.hits == 2  # both g0 re-runs
        assert cache.evictions == 1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_clear_resets_counters(self, small_random):
        cache = get_plan_cache()
        X = _features(small_random)
        TLPGNNEngine().run("gcn", small_random, X)
        TLPGNNEngine().run("gcn", small_random, X)
        assert cache.hits == 1
        cache.clear()
        snap = cache.snapshot()
        assert snap["entries"] == snap["hits"] == snap["misses"] == 0


def test_cache_entry_holds_analysis(small_random):
    """A cache entry memoizes stats + timing + plan identity."""
    X = _features(small_random)
    cache = get_plan_cache()
    res = TLPGNNEngine().run("gcn", small_random, X)
    [entry] = [cache.get(res.plan.fingerprint)]
    assert isinstance(entry, PlanCacheEntry)
    assert entry.timing.runtime_seconds == res.report.timing.runtime_seconds
    assert entry.stats.num_kernels == res.report.kernel_launches
    assert entry.info.op_names == res.plan.op_names
