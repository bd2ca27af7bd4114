"""CLI: argument handling and command output."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

ARGS = ["--max-edges", "60000", "--seed", "7"]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_choice_ok_until_run(self):
        args = build_parser().parse_args(["run", "--dataset", "CR"])
        assert args.dataset == "CR"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])


class TestCommands:
    def test_datasets(self):
        code, out = run_cli(*ARGS, "datasets")
        assert code == 0
        assert "Reddit" in out and "Citeseer" in out

    def test_run_summary(self):
        code, out = run_cli(*ARGS, "run", "--system", "TLPGNN", "--model", "gcn",
                            "--dataset", "CR")
        assert code == 0
        assert "kernel launches    : 1" in out

    def test_run_dash_cell(self):
        code, out = run_cli(*ARGS, "run", "--system", "GNNAdvisor",
                            "--model", "gat", "--dataset", "CR")
        assert code == 1
        assert "dash" in out

    def test_compare_ranks(self):
        code, out = run_cli(*ARGS, "compare", "--model", "gcn", "--dataset", "CR")
        assert code == 0
        assert "fastest" in out
        assert out.index("TLPGNN") < out.index("DGL")  # TLPGNN ranked first

    def test_compare_shows_dashes(self):
        code, out = run_cli(*ARGS, "compare", "--model", "gat", "--dataset", "CR")
        assert code == 0
        assert "GNNAdvisor" in out and "dash" in out

    def test_compare_all_dash_exits_nonzero(self, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "run_system", lambda *a, **kw: None)
        code, out = run_cli(*ARGS, "compare", "--model", "gcn", "--dataset", "CR")
        assert code == 1
        for name in ("TLPGNN", "DGL", "FeatGraph", "GNNAdvisor"):
            assert name in out
        assert out.count("dash") == 4
        assert "fastest" not in out

    def test_experiment_table4(self):
        code, out = run_cli(*ARGS, "experiment", "table4")
        assert code == 0
        assert "Table 4" in out

    def test_experiment_table2_forces_feat128(self):
        code, out = run_cli(*ARGS, "experiment", "table2")
        assert code == 0
        assert "feat 128" in out

    def test_roofline(self):
        code, out = run_cli(*ARGS, "roofline", "--system", "TLPGNN",
                            "--model", "gcn", "--dataset", "CR")
        assert code == 0
        assert "-bound" in out

    def test_roofline_multi_kernel(self):
        code, out = run_cli(*ARGS, "roofline", "--system", "DGL",
                            "--model", "gcn", "--dataset", "CR")
        assert code == 0
        assert out.count("-bound") == 6  # one line per DGL kernel


class TestTraceAndDiff:
    def test_trace_writes_loadable_chrome_json(self, tmp_path):
        target = tmp_path / "trace.json"
        code, out = run_cli(*ARGS, "trace", "--system", "TLPGNN",
                            "--model", "gcn", "--dataset", "CR",
                            "--out", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        trace = json.loads(target.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["system"] == "TLPGNN"

    def test_trace_dash_cell_exits_nonzero(self, tmp_path):
        target = tmp_path / "trace.json"
        code, out = run_cli(*ARGS, "trace", "--system", "GNNAdvisor",
                            "--model", "gat", "--dataset", "CR",
                            "--out", str(target))
        assert code == 1
        assert not target.exists()
        assert "dash" in out

    def test_trace_tracer_uninstalled_afterwards(self, tmp_path):
        from repro.obs import get_tracer

        run_cli(*ARGS, "trace", "--out", str(tmp_path / "t.json"))
        assert get_tracer() is None

    def _archive_two(self, tmp_path):
        archive_dir = tmp_path / "archive"
        for _ in range(2):
            code, _ = run_cli(*ARGS, "run", "--system", "TLPGNN",
                              "--model", "gcn", "--dataset", "CR",
                              "--archive", str(archive_dir))
            assert code == 0
        runs = sorted(archive_dir.glob("*.json"))
        assert len(runs) == 2
        return runs

    def test_run_archives_profile(self, tmp_path):
        baseline, candidate = self._archive_two(tmp_path)
        entry = json.loads(baseline.read_text())
        assert entry["config"]["system"] == "TLPGNN"
        assert entry["metrics"]["kernel_launches"] == 1

    def test_diff_identical_runs_pass(self, tmp_path):
        baseline, candidate = self._archive_two(tmp_path)
        code, out = run_cli("diff", str(baseline), str(candidate))
        assert code == 0
        assert "PASS" in out

    def test_diff_flags_perturbed_counter(self, tmp_path):
        baseline, candidate = self._archive_two(tmp_path)
        entry = json.loads(candidate.read_text())
        entry["metrics"]["mem_atomic_store_bytes"] += 4096
        candidate.write_text(json.dumps(entry))
        code, out = run_cli("diff", str(baseline), str(candidate))
        assert code == 1
        assert "mem_atomic_store_bytes" in out
        assert "FAIL" in out

    def test_diff_runtime_is_directional(self, tmp_path):
        baseline, candidate = self._archive_two(tmp_path)
        entry = json.loads(candidate.read_text())
        runtime = entry["metrics"]["runtime_ms"]
        for factor, want_code, tag in [(1.01, 1, "REGRESSED"),
                                       (0.9, 0, "improved")]:
            entry["metrics"]["runtime_ms"] = runtime * factor
            candidate.write_text(json.dumps(entry))
            code, out = run_cli("diff", str(baseline), str(candidate))
            assert code == want_code
            (line,) = [ln for ln in out.splitlines()
                       if ln.startswith("  runtime_ms ")]
            assert f"[{tag}]" in line

    def test_diff_warns_on_fingerprint_mismatch(self, tmp_path):
        baseline, candidate = self._archive_two(tmp_path)
        entry = json.loads(candidate.read_text())
        entry["fingerprint"] = "different"
        candidate.write_text(json.dumps(entry))
        code, out = run_cli("diff", str(baseline), str(candidate))
        assert code == 0
        assert "WARNING: config fingerprints differ" in out

    def test_diff_bad_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, out = run_cli("diff", str(bad), str(bad))
        assert code == 2
        assert "error:" in out


class TestServe:
    def test_smoke_self_check(self):
        code, out = run_cli(*ARGS, "serve", "--smoke")
        assert code == 0
        assert "serve smoke: OK" in out
        assert "admission" in out and "latency ms" in out

    def test_serve_report_fields(self):
        code, out = run_cli(*ARGS, "serve", "--system", "DGL",
                            "--dataset", "CR", "--requests", "40")
        assert code == 0
        assert "serve DGL/gcn/" in out
        assert "arrived=40" in out
        assert "offline" in out  # run_system reference line

    def test_serve_metrics_out(self, tmp_path):
        target = tmp_path / "metrics.jsonl"
        code, out = run_cli(*ARGS, "serve", "--smoke",
                            "--metrics-out", str(target))
        assert code == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert "serve_latency_p99_ms" in names
        assert "serve_requests_shed" in names

    def test_serve_unsupported_cell(self):
        code, out = run_cli(*ARGS, "serve", "--system", "GNNAdvisor",
                            "--model", "gat", "--requests", "10")
        assert code == 1
        assert "cannot serve" in out

    def test_serve_registry_uninstalled_afterwards(self):
        from repro.obs.metrics import get_registry

        run_cli(*ARGS, "serve", "--smoke")
        assert get_registry() is None


class TestServeTracing:
    def test_tree_prints_slowest_span_trees(self):
        code, out = run_cli(*ARGS, "serve", "--smoke", "--tree", "2")
        assert code == 0
        assert out.count("request #") >= 2
        for stage in ("queue", "batch", "launch", "kernel"):
            assert stage in out

    def test_trace_writes_loadable_chrome_json(self, tmp_path):
        target = tmp_path / "reqtrace.json"
        code, out = run_cli(*ARGS, "serve", "--smoke",
                            "--trace", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        events = json.loads(target.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["name"].startswith("request #") for e in events)

    def test_collector_uninstalled_afterwards(self, tmp_path):
        from repro.obs.reqtrace import get_request_collector

        run_cli(*ARGS, "serve", "--smoke", "--tree", "1")
        assert get_request_collector() is None

    def test_serve_slo_summary_and_metrics(self, tmp_path):
        target = tmp_path / "metrics.jsonl"
        code, out = run_cli(*ARGS, "serve", "--smoke", "--slo-ms", "0.5",
                            "--metrics-out", str(target))
        assert code == 0
        assert "slo" in out and "burn-rate alert" in out
        records = [json.loads(line) for line in target.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert "slo_budget_used" in names
        assert "serve_latency_ms" in names
        # satellite 2: both plan-cache counters materialize, even at zero
        assert "plan_cache_hit" in names and "plan_cache_miss" in names
        hist = next(r for r in records if r["name"] == "serve_latency_ms")
        exemplars = [
            b["exemplar"] for b in hist["buckets"] if b["exemplar"]
        ]
        assert exemplars  # request ids survive into the JSONL dump


class TestTopAndMetrics:
    def test_top_renders_dashboard(self):
        code, out = run_cli(*ARGS, "top", "--requests", "60", "--load", "0.4")
        assert code == 0
        assert "SLO" in out
        assert "budget" in out
        assert "#" in out or "-" in out  # the budget bar

    def test_top_overload_fires(self):
        code, out = run_cli(*ARGS, "top", "--requests", "80", "--load", "4.0",
                            "--queue-depth", "8")
        assert code == 0
        assert "FIRING" in out

    def test_top_unsupported_cell(self):
        code, out = run_cli(*ARGS, "top", "--system", "GNNAdvisor",
                            "--model", "gat")
        assert code == 1
        assert "cannot serve" in out

    def test_metrics_self_contained_exposition(self):
        code, out = run_cli(*ARGS, "metrics", "--requests", "32")
        assert code == 0
        assert "# TYPE serve_latency_ms histogram" in out
        assert "serve_latency_ms_bucket" in out
        assert "plan_cache_hit" in out and "plan_cache_miss" in out
        assert 'rid="' in out  # exemplars rendered

    def test_metrics_from_jsonl(self, tmp_path):
        target = tmp_path / "metrics.jsonl"
        code, _ = run_cli(*ARGS, "serve", "--smoke",
                          "--metrics-out", str(target))
        assert code == 0
        code, out = run_cli("metrics", "--from-jsonl", str(target))
        assert code == 0
        assert "serve_requests_completed" in out
        assert "# TYPE" in out

    def test_metrics_from_missing_file_exits_two(self, tmp_path):
        code, out = run_cli("metrics", "--from-jsonl",
                            str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error:" in out


class TestRegress:
    def test_record_then_compare_passes(self, tmp_path):
        code, out = run_cli(*ARGS, "regress", "--probe", "serving",
                            "--store-dir", str(tmp_path), "--record")
        assert code == 0
        store = tmp_path / "BENCH_serving.json"
        assert store.exists()
        doc = json.loads(store.read_text())
        assert len(doc["points"]) == 1
        assert doc["points"][0]["metrics"]["completed"] > 0
        code, out = run_cli(*ARGS, "regress", "--probe", "serving",
                            "--store-dir", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_injected_slowdown_exits_nonzero(self, tmp_path):
        run_cli(*ARGS, "regress", "--probe", "serving",
                "--store-dir", str(tmp_path), "--record")
        store = tmp_path / "BENCH_serving.json"
        doc = json.loads(store.read_text())
        # shrink the recorded latencies: HEAD now looks 2x slower
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            doc["points"][0]["metrics"][key] *= 0.5
        store.write_text(json.dumps(doc))
        code, out = run_cli(*ARGS, "regress", "--probe", "serving",
                            "--store-dir", str(tmp_path))
        assert code == 1
        assert "FAIL" in out and "p99_ms" in out

    def test_no_matching_baseline_is_informative_not_fatal(self, tmp_path):
        code, out = run_cli(*ARGS, "regress", "--probe", "serving",
                            "--store-dir", str(tmp_path))
        assert code == 0
        assert "no trajectory point" in out

    def test_config_fingerprint_scopes_the_comparison(self, tmp_path):
        run_cli(*ARGS, "regress", "--probe", "serving",
                "--store-dir", str(tmp_path), "--record")
        # a different scale cap fingerprints differently: no baseline
        code, out = run_cli("--max-edges", "50000", "--seed", "7", "regress",
                            "--probe", "serving", "--store-dir", str(tmp_path))
        assert code == 0
        assert "no trajectory point" in out


class TestValidateAndReport:
    def test_validate_selected(self):
        code, out = run_cli(*ARGS, "validate", "--only", "table5-dashes")
        assert code == 0
        assert "[PASS] table5-dashes" in out
        assert "1/1 claims hold" in out

    def test_validate_refuses_unknown_claim(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*ARGS, "validate", "--only", "obs1-atomic"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "obs1-atomics" in err  # the valid ids

    def test_validate_names_claims_of_another_scale(self):
        code, out = run_cli(*ARGS, "validate", "--only", "fig12-512")
        assert code == 0
        assert "skipped: fig12-512 (stated at 2,000,000 edges)" in out
        assert "0/0 claims hold" in out

    def test_report_to_file(self, tmp_path):
        target = tmp_path / "report.txt"
        code, out = run_cli(*ARGS, "report", "--out", str(target))
        assert code == 0
        text = target.read_text()
        for exp in ("Table 1", "Table 5", "Figure 12"):
            assert exp in text


class TestCommandTable:
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_every_command_has_help(self, name, capsys):
        assert COMMANDS[name].help.strip()
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: repro {name}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["lint", "--system", "DGL", "--model", "gat", "--dataset", "CR"],
        ["verify", "--system", "TLPGNN", "--model", "gcn", "--dataset", "CR"],
    ])
    def test_json_flag_is_format_json(self, argv):
        assert run_cli(*ARGS, *argv, "--json") == run_cli(
            *ARGS, *argv, "--format", "json"
        )

    @pytest.mark.parametrize("command", ["lint", "verify"])
    @pytest.mark.parametrize("fmt", ["json", "sarif", "text"])
    def test_json_with_format_is_a_usage_error(self, command, fmt):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--json", "--format", fmt])
        assert exc.value.code == 2

    def test_readme_lists_every_command(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        listing = readme[readme.index("repro.cli         python -m repro {"):]
        names = listing[listing.index("{") + 1:listing.index("}")]
        assert sorted(names.replace(",", " ").split()) == sorted(COMMANDS)

    def test_feat_does_not_change_the_feat128_tables(self):
        for exp in ("table1", "table2"):
            assert run_cli(*ARGS, "experiment", exp) == run_cli(
                *ARGS, "--feat", "64", "experiment", exp
            )


class TestStoreLoading:
    """``tune --store`` and ``serve --store`` share one store loader."""

    @pytest.mark.parametrize("command", [
        ["tune", "--dataset", "CR", "--budget", "2"],
        ["serve", "--smoke"],
    ])
    def test_malformed_store_exits_two(self, command, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run_cli(*ARGS, *command, "--store", str(bad))
        assert code == 2
        assert f"cannot read store {bad}" in out

    def test_serve_requires_an_existing_store(self, tmp_path):
        code, out = run_cli(*ARGS, "serve", "--smoke",
                            "--store", str(tmp_path / "missing.json"))
        assert code == 2
        assert "cannot read store" in out

    def test_tune_creates_a_missing_store(self, tmp_path):
        target = tmp_path / "tuned.json"
        code, _ = run_cli(*ARGS, "tune", "--dataset", "CR", "--budget", "2",
                          "--json", "--store", str(target))
        assert code in (0, 1)
        assert json.loads(target.read_text())["entries"]
