"""Trend store: trajectory points, directional policies, regression gate."""

import json

import numpy as np
import pytest

from repro.bench import BenchConfig
from repro.bench.regress import PROBES
from repro.frameworks import GNNAdvisorSystem
from repro.obs.trend import (
    DEFAULT_POLICIES,
    FLOAT_NOISE,
    TREND_SCHEMA_VERSION,
    MetricPolicy,
    TrendStore,
    git_rev,
    policy_for,
)


def _store(tmp_path, name="BENCH_serving.json"):
    return TrendStore(tmp_path / name)


class TestGitRev:
    def test_repo_head_is_a_short_hash(self):
        rev = git_rev(".")
        assert rev != "unknown"
        assert 4 <= len(rev) <= 40
        int(rev, 16)  # hex

    def test_non_repo_is_unknown_not_an_error(self, tmp_path):
        assert git_rev(tmp_path) == "unknown"


class TestStoreRoundTrip:
    def test_absent_file_loads_empty_skeleton(self, tmp_path):
        store = _store(tmp_path)
        doc = store.load()
        assert doc["schema_version"] == TREND_SCHEMA_VERSION
        assert doc["name"] == "serving"  # BENCH_ prefix stripped
        assert doc["points"] == []
        assert store.latest() is None

    def test_record_appends_and_reloads(self, tmp_path):
        store = _store(tmp_path)
        p0 = store.record(
            {"p99_ms": 1.5, "completed": 96}, fingerprint="fp",
            rev="abc1234", timestamp=100.0, meta={"dataset": "CR"},
        )
        p1 = store.record(
            {"p99_ms": 1.4, "completed": 96}, fingerprint="fp",
            rev="def5678", timestamp=200.0,
        )
        assert p0["rev"] == "abc1234" and p0["meta"] == {"dataset": "CR"}
        reloaded = TrendStore(store.path)
        assert [p["rev"] for p in reloaded.points()] == [
            "abc1234", "def5678",
        ]
        assert reloaded.latest()["metrics"]["p99_ms"] == 1.4
        assert p1["recorded_unix"] == 200.0

    def test_points_scope_by_fingerprint(self, tmp_path):
        # CI's small-scale points never compare against full-scale ones
        store = _store(tmp_path)
        store.record({"p99_ms": 1.0}, fingerprint="ci", rev="a", timestamp=1.0)
        store.record({"p99_ms": 9.0}, fingerprint="dev", rev="b", timestamp=2.0)
        assert len(store.points()) == 2
        assert store.latest(fingerprint="ci")["metrics"]["p99_ms"] == 1.0
        assert store.points(fingerprint="nope") == []
        assert (
            store.compare({"p99_ms": 1.0}, fingerprint="nope", rev="c")
            is None
        )

    def test_record_rejects_non_numeric_metrics(self, tmp_path):
        store = _store(tmp_path)
        with pytest.raises(TypeError, match="numeric"):
            store.record({"name": "TLPGNN"}, fingerprint="fp")
        with pytest.raises(TypeError, match="numeric"):
            store.record({"flag": True}, fingerprint="fp")

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema_version": 999, "points": []}))
        with pytest.raises(ValueError, match="schema"):
            TrendStore(path).load()

    def test_load_rejects_non_store_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema_version": TREND_SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="not a trend store"):
            TrendStore(path).load()


class TestPolicies:
    def test_lower_better_directionality(self):
        p = MetricPolicy(rel=0.05, better="lower")
        assert p.classify(1.0, 1.01) == "ok"        # inside the band
        assert p.classify(1.0, 1.2) == "regressed"  # slower
        assert p.classify(1.0, 0.7) == "improved"   # faster

    def test_higher_better_directionality(self):
        p = MetricPolicy(rel=0.05, better="higher")
        assert p.classify(100.0, 96.0) == "ok"
        assert p.classify(100.0, 80.0) == "regressed"
        assert p.classify(100.0, 130.0) == "improved"

    def test_both_regresses_either_direction(self):
        p = MetricPolicy(better="both")
        assert p.classify(96.0, 96.0) == "ok"
        assert p.classify(96.0, 95.0) == "regressed"
        assert p.classify(96.0, 97.0) == "regressed"

    def test_policy_for_exact_then_suffix_then_fallback(self):
        assert policy_for("p99_ms").better == "lower"
        # probe metrics like TLPGNN_CR_runtime_ms inherit the suffix policy
        assert policy_for("TLPGNN_CR_runtime_ms").better == "lower"
        assert policy_for("offline_throughput_rps").better == "higher"
        assert policy_for("mystery_metric").better == "both"

    def test_default_policies_cover_probe_metrics(self, small_random):
        # every metric either gate compares has an explicit entry (by
        # exact name or suffix); none falls through to the fallback
        def explicit(metric):
            parts = metric.split("_")
            return any(
                "_".join(parts[i:]) in DEFAULT_POLICIES
                for i in range(len(parts))
            )

        X = np.ones((small_random.num_vertices, 8), dtype=np.float32)
        report = GNNAdvisorSystem().run("gcn", small_random, X).report
        names = [
            k for k, v in report.as_dict().items()
            if isinstance(v, (int, float))
        ]
        config = BenchConfig(max_edges=20_000, seed=7)
        for probe in PROBES.values():
            names += list(probe(config).metrics)
        assert len(names) > 20
        assert [m for m in names if not explicit(m)] == []

    def test_counters_exact_modeled_floats_float_noise(self):
        for name in ("kernel_launches", "mem_total_bytes", "completed",
                     "shed", "iterations"):
            assert policy_for(name) == MetricPolicy()
        for name, better in [("runtime_ms", "lower"), ("p99_ms", "lower"),
                             ("throughput_rps", "higher"),
                             ("speedup", "higher"), ("fixed_ms", "both"),
                             ("achieved_occupancy", "both")]:
            assert policy_for(name) == MetricPolicy(FLOAT_NOISE, better)
        assert policy_for("mystery_metric") == MetricPolicy(FLOAT_NOISE)


class TestCompare:
    def _record(self, tmp_path, **metrics):
        store = _store(tmp_path)
        base = {
            "p99_ms": 2.0, "throughput_rps": 500.0, "completed": 96.0,
        }
        base.update(metrics)
        store.record(base, fingerprint="fp", rev="base123", timestamp=1.0)
        return store

    def test_identical_metrics_pass(self, tmp_path):
        store = self._record(tmp_path)
        diff = store.compare(
            {"p99_ms": 2.0, "throughput_rps": 500.0, "completed": 96.0},
            fingerprint="fp", rev="head456",
        )
        assert diff.ok and not diff.regressions
        text = diff.render()
        assert "PASS" in text
        assert "base123" in text and "head456" in text

    def test_injected_slowdown_regresses(self, tmp_path):
        store = self._record(tmp_path)
        diff = store.compare(
            {"p99_ms": 2.5, "throughput_rps": 500.0, "completed": 96.0},
            fingerprint="fp", rev="head456",
        )
        assert not diff.ok
        assert [d.metric for d in diff.regressions] == ["p99_ms"]
        assert "FAIL" in diff.render() and "p99_ms" in diff.render()

    def test_latency_improvement_is_not_a_regression(self, tmp_path):
        store = self._record(tmp_path)
        diff = store.compare(
            {"p99_ms": 1.0, "throughput_rps": 500.0, "completed": 96.0},
            fingerprint="fp", rev="head456",
        )
        assert diff.ok
        assert [d.metric for d in diff.improvements] == ["p99_ms"]
        assert "re-recording" in diff.render()  # nudge to move the baseline

    def test_throughput_drop_regresses(self, tmp_path):
        store = self._record(tmp_path)
        diff = store.compare(
            {"p99_ms": 2.0, "throughput_rps": 400.0, "completed": 96.0},
            fingerprint="fp", rev="head456",
        )
        assert [d.metric for d in diff.regressions] == ["throughput_rps"]

    def test_missing_metric_regresses(self, tmp_path):
        store = self._record(tmp_path)
        diff = store.compare(
            {"p99_ms": 2.0, "throughput_rps": 500.0},
            fingerprint="fp", rev="head456",
        )
        assert not diff.ok
        assert diff.missing_metrics == ["completed"]
        assert "missing from candidate" in diff.render()

    def test_compare_uses_latest_matching_point(self, tmp_path):
        store = self._record(tmp_path)
        store.record(
            {"p99_ms": 3.0, "throughput_rps": 500.0, "completed": 96.0},
            fingerprint="fp", rev="newer99", timestamp=2.0,
        )
        diff = store.compare(
            {"p99_ms": 3.0, "throughput_rps": 500.0, "completed": 96.0},
            fingerprint="fp", rev="head456",
        )
        assert diff.ok and "baseline rev newer99" in diff.render()
