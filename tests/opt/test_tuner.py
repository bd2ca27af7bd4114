"""Auto-tuner contracts: determinism, budget, tie-or-win, the decision
``opt="search"`` makes, persistence, fingerprint separation, and the
metrics mirror."""

import numpy as np
import pytest

from repro.bench.harness import (
    BenchConfig,
    Cell,
    get_dataset,
    load_cell,
    make_features,
    walk_grid,
)
from repro.frameworks import SYSTEMS
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.opt import (
    PAPER_FIXED_KNOBS,
    TUNER_VERSION,
    AutoTuner,
    TunedPlanStore,
    kernel_from_knobs,
    knobs_for_kernel,
    modeled_runtime_s,
    optimize_plan,
    set_tuned_store,
    tuning_key,
)
from repro.opt.rewrites import _conv_index, _with_kernel
from repro.plan.cache import plan_fingerprint

#: the scale of the cells the search-decision tests tune
_SMALL = BenchConfig(max_edges=60_000)


@pytest.fixture(scope="module")
def cell():
    config = BenchConfig()
    ds = get_dataset("CR", config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    return ds, X, config.spec_for(ds)


@pytest.fixture
def fresh_store():
    """Install an empty process store; restore the old one afterwards."""
    store = TunedPlanStore()
    previous = set_tuned_store(store)
    yield store
    set_tuned_store(previous)


def _tune(cell, *, budget=12, seed=0, store=None):
    ds, X, spec = cell
    # note: an empty TunedPlanStore is falsy (len == 0), so `store or ...`
    # would silently discard it — compare against None explicitly
    tuner = AutoTuner(
        budget=budget,
        seed=seed,
        store=store if store is not None else TunedPlanStore(),
    )
    return tuner.tune(SYSTEMS["TLPGNN"](), "gcn", ds, X, spec)


class TestSearch:
    def test_tie_or_win_vs_paper_fixed_config(self, cell):
        result = _tune(cell)
        assert result.tuned_ms <= result.fixed_ms * (1 + 1e-12)
        assert result.speedup_vs_fixed >= 1.0 - 1e-12

    def test_iterations_within_budget(self, cell):
        for budget in (2, 5, 12):
            result = _tune(cell, budget=budget)
            assert 0 < result.iterations <= budget

    def test_deterministic_replay(self, cell):
        a = _tune(cell, budget=10, seed=3)
        b = _tune(cell, budget=10, seed=3)
        assert a.best_knobs == b.best_knobs
        assert a.tuned_ms == b.tuned_ms
        assert a.fixed_ms == b.fixed_ms
        assert a.iterations == b.iterations

    def test_anchors_always_measured(self, cell):
        ds, X, spec = cell
        result = _tune(cell, budget=2)
        plan = SYSTEMS["TLPGNN"]().lower("gcn", ds, X, spec)
        safe, _ = optimize_plan(plan, spec, level="safe", dataset=ds)
        fixed = _with_kernel(
            safe, _conv_index(safe),
            kernel_from_knobs(PAPER_FIXED_KNOBS, dataset=ds),
        )
        assert result.fixed_ms == modeled_runtime_s(fixed, spec) * 1e3

    def test_budget_floor_enforced(self, cell):
        with pytest.raises(ValueError):
            AutoTuner(budget=-1)
        assert _tune(cell, budget=1).iterations <= 1


class TestSearchDecision:
    """The tuner persists the decision opt="search" makes: the same search
    at the same budget and seed, so a warm replay is never slower."""

    @pytest.mark.parametrize("abbr", ["CR", "PD", "RD"])
    def test_tuner_returns_the_search_decision(self, abbr):
        cells = walk_grid(
            [load_cell(abbr, _SMALL)], Cell.lower, models=["gcn", "gat"]
        )
        searched_cells = 0
        for cell, model, system, plan in cells:
            if isinstance(plan, Exception):  # a dash: nothing to tune
                continue
            searched_cells += 1
            for budget in (12, 32):
                result = AutoTuner(
                    budget=budget, seed=7, store=TunedPlanStore()
                ).tune(
                    SYSTEMS[system](), model, cell.dataset, cell.X, cell.spec
                )
                searched, _ = optimize_plan(
                    plan, cell.spec, level="search", dataset=cell.dataset,
                    budget=budget, seed=7,
                )
                conv = searched.conv_op
                knobs = (
                    {"kernel": "reference"} if conv is None
                    else knobs_for_kernel(conv.kernel)
                    or {"kernel": conv.kernel.name}
                )
                label = (system, model, budget)
                assert result.best_knobs == knobs, label
                assert result.tuned_ms == (
                    modeled_runtime_s(searched, cell.spec) * 1e3
                ), label
                assert result.tuned_ms <= result.default_ms, label
                assert result.tuned_ms <= result.fixed_ms, label
                assert result.iterations <= budget, label
        assert searched_cells


class TestStore:
    def test_record_and_lookup(self, cell):
        ds, X, spec = cell
        store = TunedPlanStore()
        result = _tune(cell, store=store)
        assert len(store) == 1
        assert result.key in store
        assert store.lookup(result.key) == result.best_knobs
        assert store.lookup("missing") is None
        assert store.snapshot() == {
            "entries": 1, "hits": 1, "misses": 1, "tuned": 1, "dropped": 0,
        }
        entry = store.entry(result.key)
        assert entry is not None and entry["knobs"] == result.best_knobs
        assert entry["certificate"]["verdict"] in (
            "equal", "equivalent-unordered"
        )

    def test_save_load_roundtrip(self, cell, tmp_path):
        store = TunedPlanStore()
        result = _tune(cell, store=store)
        path = tmp_path / "tuned.json"
        store.save(path)
        loaded = TunedPlanStore.load(path)
        assert len(loaded) == 1
        assert loaded.lookup(result.key) == result.best_knobs

    def test_version_mismatch_dropped_on_load(self, cell, tmp_path):
        store = TunedPlanStore()
        result = _tune(cell, store=store)
        store._entries[result.key]["version"] = TUNER_VERSION + 1
        path = tmp_path / "tuned.json"
        store.save(path)
        loaded = TunedPlanStore.load(path)
        assert len(loaded) == 0
        # the silent drop is silent no more: counted and exposed
        assert loaded.dropped == 1
        assert loaded.snapshot()["dropped"] == 1

    def test_metrics_mirror(self, cell):
        ds, X, spec = cell
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            store = TunedPlanStore()
            result = _tune(cell, store=store)
            store.lookup(result.key, system="TLPGNN", model="gcn")
            store.lookup("missing")
            store.publish(registry)
            snap = {
                (m["name"], tuple(sorted(m.get("labels", {}).items()))): m
                for m in registry.snapshot()
            }
            assert snap[("plans_tuned", ())]["value"] == 1
            assert snap[("tuned_plan_entries", ())]["value"] == 1
            hit = [
                m for m in registry.snapshot()
                if m["name"] == "tuned_plan_hit" and m.get("labels")
            ]
            assert hit and hit[0]["value"] == 1
        finally:
            set_registry(previous)


class TestFingerprintSeparation:
    """Satellite: an untuned cached plan is never served as tuned."""

    def _key(self, cell, opt):
        ds, X, spec = cell
        return plan_fingerprint(
            system="TLPGNN", model="gcn", graph=ds.graph, X=X, spec=spec,
            knobs={}, dataset=ds, opt=opt,
        )

    def test_opt_context_changes_fingerprint(self, cell):
        base = self._key(cell, None)
        safe = self._key(
            cell, {"level": "safe", "tuner_version": TUNER_VERSION,
                   "tuned": None},
        )
        tuned = self._key(
            cell, {"level": "search", "tuner_version": TUNER_VERSION,
                   "tuned": dict(PAPER_FIXED_KNOBS)},
        )
        untuned = self._key(
            cell, {"level": "search", "tuner_version": TUNER_VERSION,
                   "tuned": None},
        )
        assert len({base, safe, tuned, untuned}) == 4

    def test_tuner_version_changes_fingerprint(self, cell):
        a = self._key(
            cell, {"level": "search", "tuner_version": TUNER_VERSION,
                   "tuned": None},
        )
        b = self._key(
            cell, {"level": "search", "tuner_version": TUNER_VERSION + 1,
                   "tuned": None},
        )
        assert a != b

    def test_legacy_fingerprint_stable_without_opt(self, cell):
        """opt=None must hash exactly like the pre-optimizer payload."""
        ds, X, spec = cell
        legacy = plan_fingerprint(
            system="TLPGNN", model="gcn", graph=ds.graph, X=X, spec=spec,
            knobs={}, dataset=ds,
        )
        assert legacy == self._key(cell, None)


class TestRunIntegration:
    def test_search_run_hits_tuned_store(self, fresh_store):
        """A warm opt="search" replays the tuned plan: one store hit, the
        reference output bytes, and the runtime of a cold opt="search"
        from an empty store.  The tuner runs at the cold path's own
        budget and seed (16, 0), and at the CLI's budget with another
        seed (32, 7)."""
        tlp = SYSTEMS["TLPGNN"]()
        for abbr in ("CR", "PD", "RD"):
            cell = load_cell(abbr, _SMALL)
            args = ("gcn", cell.dataset, cell.X, cell.spec)
            cold = tlp.profile(*args, opt="search")
            reference = tlp.run(*args).output
            for budget, seed in ((16, 0), (32, 7)):
                store = TunedPlanStore()
                set_tuned_store(store)  # the fixture restores the old one
                result = AutoTuner(budget=budget, seed=seed).tune(tlp, *args)
                warm = tlp.run(*args, opt="search")
                label = (abbr, budget, seed)
                assert store.hits == 1, label
                assert result.key in store, label
                assert warm.runtime_ms == cold.runtime_ms, label
                # the tuned path still computes the exact reference bytes
                assert np.array_equal(warm.output, reference), label

    def test_tuning_key_ignores_feature_values(self, cell):
        ds, X, spec = cell
        a = tuning_key(
            system="TLPGNN", model="gcn", graph=ds.graph, X=X, spec=spec,
            dataset=ds,
        )
        b = tuning_key(
            system="TLPGNN", model="gcn", graph=ds.graph,
            X=np.zeros_like(X), spec=spec, dataset=ds,
        )
        c = tuning_key(
            system="TLPGNN", model="gcn", graph=ds.graph,
            X=X[:, : X.shape[1] // 2], spec=spec, dataset=ds,
        )
        assert a == b  # values don't matter
        assert a != c  # geometry does
