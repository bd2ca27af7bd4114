"""Profile archive: persistence, fingerprints, and diffing archived runs
through the one comparison of :mod:`repro.obs.trend`."""

import json

import pytest

from repro.bench import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import SYSTEMS
from repro.obs.archive import (
    SCHEMA_VERSION,
    ProfileArchive,
    config_fingerprint,
    load_run,
)
from repro.obs.trend import compare_metrics

CONFIG = BenchConfig(max_edges=60_000, seed=7)


def _report(system="TLPGNN", model="gcn", dataset="CR"):
    ds = get_dataset(dataset, CONFIG)
    X = make_features(ds.graph.num_vertices, CONFIG.feat_dim, seed=CONFIG.seed)
    return run_system(SYSTEMS[system](), model, ds, CONFIG, X=X).report


@pytest.fixture(scope="module")
def report():
    return _report()


class TestFingerprint:
    def test_stable(self):
        a = config_fingerprint(dataset="CR", seed=7, feat_dim=32)
        b = config_fingerprint(dataset="CR", seed=7, feat_dim=32)
        assert a == b

    def test_sensitive_to_every_knob(self):
        base = dict(dataset="CR", seed=7, feat_dim=32, max_edges=1000)
        fp = config_fingerprint(**base)
        for key, value in [
            ("dataset", "RD"), ("seed", 8), ("feat_dim", 64), ("max_edges", 2000),
        ]:
            assert config_fingerprint(**{**base, key: value}) != fp

    def test_sensitive_to_spec(self):
        from repro.gpusim import V100, A100

        a = config_fingerprint(dataset="CR", seed=7, feat_dim=32, spec=V100)
        b = config_fingerprint(dataset="CR", seed=7, feat_dim=32, spec=A100)
        assert a != b


class TestArchive:
    def test_record_and_load_roundtrip(self, tmp_path, report):
        archive = ProfileArchive(tmp_path)
        path = archive.record(
            report, seed=7, feat_dim=32, max_edges=60_000,
        )
        entry = load_run(path)
        assert entry["schema_version"] == SCHEMA_VERSION
        assert entry["config"]["system"] == "TLPGNN"
        assert entry["metrics"] == report.as_dict()

    def test_successive_records_get_distinct_paths(self, tmp_path, report):
        archive = ProfileArchive(tmp_path)
        p0 = archive.record(report, seed=7, feat_dim=32)
        p1 = archive.record(report, seed=7, feat_dim=32)
        assert p0 != p1
        assert archive.runs() == [p0, p1]
        assert archive.latest() == p1

    def test_runs_filter_by_fingerprint(self, tmp_path, report):
        archive = ProfileArchive(tmp_path)
        p0 = archive.record(report, seed=7, feat_dim=32)
        archive.record(report, seed=8, feat_dim=32)
        fp = load_run(p0)["fingerprint"]
        assert archive.runs(fingerprint=fp) == [p0]

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 999, "metrics": {},
                                   "fingerprint": "x"}))
        with pytest.raises(ValueError, match="schema"):
            load_run(bad)

    def test_load_rejects_non_archive_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="not a profile-archive"):
            load_run(bad)


class TestDiff:
    def _entries(self, tmp_path, report):
        archive = ProfileArchive(tmp_path)
        p0 = archive.record(report, seed=7, feat_dim=32)
        p1 = archive.record(report, seed=7, feat_dim=32)
        return load_run(p0)["metrics"], load_run(p1)["metrics"]

    def test_identical_runs_pass(self, tmp_path, report):
        base, cand = self._entries(tmp_path, report)
        result = compare_metrics(base, cand)
        assert result.ok
        assert not result.regressions and not result.improvements
        assert "PASS" in result.render()

    def test_counter_perturbation_flags_the_metric(self, tmp_path, report):
        base, cand = self._entries(tmp_path, report)
        cand["mem_load_bytes"] += 4096
        result = compare_metrics(base, cand)
        assert not result.ok
        assert [d.metric for d in result.regressions] == ["mem_load_bytes"]
        assert "mem_load_bytes" in result.render()
        assert "FAIL" in result.render()

    @pytest.mark.parametrize("factor,verdict", [
        (1 + 1e-12, "ok"),       # reassociated float math
        (1.01, "regressed"),     # a 1% modeled slowdown
        (0.9, "improved"),       # a modeled speed-up
    ])
    def test_modeled_time_band_is_float_noise_and_directional(
        self, tmp_path, report, factor, verdict
    ):
        base, cand = self._entries(tmp_path, report)
        cand["runtime_ms"] *= factor
        result = compare_metrics(base, cand)
        (delta,) = [d for d in result.deltas if d.metric == "runtime_ms"]
        assert delta.verdict == verdict
        assert result.ok == (verdict != "regressed")
        assert all(d.verdict == "ok" for d in result.deltas if d is not delta)

    def test_beyond_tolerance_time_drift_fails(self, tmp_path, report):
        base, cand = self._entries(tmp_path, report)
        cand["runtime_ms"] *= 1.10
        result = compare_metrics(base, cand)
        assert [d.metric for d in result.regressions] == ["runtime_ms"]

    def test_missing_metric_is_a_regression(self, tmp_path, report):
        base, cand = self._entries(tmp_path, report)
        del cand["mem_atomic_store_bytes"]
        result = compare_metrics(base, cand)
        assert not result.ok
        assert result.missing_metrics == ["mem_atomic_store_bytes"]
        assert "missing from candidate" in result.render()


class TestEdgeCases:
    def test_empty_archive_has_no_runs_or_latest(self, tmp_path):
        archive = ProfileArchive(tmp_path / "fresh")
        assert archive.runs() == []
        assert archive.latest() is None
        assert archive.latest(fingerprint="anything") is None

    def test_diff_of_empty_metric_sets_passes(self):
        result = compare_metrics({}, {})
        assert result.ok
        assert result.deltas == [] and result.missing_metrics == []
        assert "PASS" in result.render()

    def test_string_metrics_are_skipped_not_compared(self):
        result = compare_metrics(
            {"system": "TLPGNN", "runtime_ms": 1.0},
            {"system": "OTHER", "runtime_ms": 1.0},
        )
        assert result.ok
        assert [d.metric for d in result.deltas] == ["runtime_ms"]

    def test_extra_candidate_metrics_are_ignored(self):
        result = compare_metrics(
            {"runtime_ms": 1.0}, {"runtime_ms": 1.0, "new_metric": 42.0}
        )
        assert result.ok
        assert [d.metric for d in result.deltas] == ["runtime_ms"]

    def test_zero_baseline_rel_delta(self):
        result = compare_metrics({"extra_counter": 0.0}, {"extra_counter": 1.0})
        (delta,) = result.deltas
        assert delta.rel_delta == float("inf")
        assert delta.verdict == "regressed"  # 0 -> 1 exceeds any relative band
