"""Smoke + shape tests of every table/figure regenerator (reduced scale)."""

import numpy as np
import pytest

from repro.bench import (
    ABLATION_STAGES,
    BenchConfig,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    get_dataset,
    judge_result,
    profile_system,
    run_comparison,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.bench.report import TableResult, render_table
from repro.frameworks import SYSTEMS

CFG = BenchConfig(max_edges=60_000, seed=7)
CFG128 = BenchConfig(feat_dim=128, max_edges=60_000, seed=7)


def _tlpgnn_gcn_ms(abbr, **config):
    cfg = BenchConfig(seed=7, **config)
    ds = get_dataset(abbr, cfg)
    return profile_system(SYSTEMS["TLPGNN"](), "gcn", ds, cfg).runtime_ms


class TestRenderer:
    def test_render_table_widths(self):
        out = render_table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[2]) for l in lines[2:4])

    def test_render_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row width"):
            render_table("T", ["a"], [["1", "2"]])

    def test_table_result_render(self):
        t = TableResult(
            exp_id="X", title="t", headers=["h"], rows=[["v"]], notes="n"
        )
        r = t.render()
        assert "X: t" in r and "n" in r


class TestTables:
    def test_table1_shape(self):
        t = table1(CFG128)
        assert len(t.records) == 4
        assert t.headers[1:] == ["Push", "Edge", "GnnA.", "Pull"]
        assert len(t.rows) == 5

    def test_table2_shape(self):
        t = table2(CFG128)
        assert len(t.records) == 2
        assert len(t.rows) == 4

    def test_table3_shape(self):
        t = table3(CFG)
        assert [r["config"] for r in t.records] == [
            "DGL", "Three-Kernel", "One-Kernel",
        ]
        assert len(t.rows) == 8

    def test_table4_covers_registry(self):
        t = table4(CFG)
        assert len(t.rows) == 11
        # every stand-in within its edge cap and 6% of the paper's degree
        (verdict,) = judge_result(table4, t, CFG)
        assert verdict.passed, verdict.detail

    def test_table5_subset(self):
        t = table5(CFG, models=("gcn",), datasets=("CR", "RD"))
        assert len(t.records) == 2
        rd = next(r for r in t.records if r["dataset"] == "RD")
        assert rd["GNNA."] is None  # capacity dash
        assert rd["TLPGNN"] is not None


class TestFigures:
    def test_fig8_shape(self):
        t = fig8(CFG)
        assert len(t.records) == 14
        assert {r["model"] for r in t.records} == {"gcn", "gin"}

    def test_fig9_average_rows(self):
        t = fig9(CFG)
        avgs = [r for r in t.records if r["dataset"] == "average"]
        assert len(avgs) == 2
        assert all(0.0 <= r["occupancy"] <= 1.0 for r in t.records)

    def test_fig10_stage_keys(self):
        t = fig10(CFG, models=("gcn",), datasets=("PI",))
        rec = t.records[0]
        assert set(rec) >= {"+TLP", "+Hybrid", "+Cache", "total", "baseline_ms"}
        assert "+Fusion" not in rec  # only GAT has the fusion stage

    def test_fig10_gat_has_fusion(self):
        t = fig10(CFG, models=("gat",), datasets=("PI",))
        assert "+Fusion" in t.records[0]

    def test_ablation_stage_registry(self):
        assert list(ABLATION_STAGES) == [
            "Baseline", "+TLP", "+Hybrid", "+Cache", "+Fusion",
        ]

    def test_fig11_monotone(self):
        t = fig11(CFG, models=("gcn",), datasets=("CL",), block_counts=(1, 4, 16))
        sp = t.records[0]["speedups"]
        assert sp == sorted(sp)

    def test_fig12_monotone(self):
        t = fig12(CFG, models=("gin",), datasets=("CL",), feat_sizes=(16, 64))
        norm = t.records[0]["normalized"]
        assert norm[0] == 1.0 and norm[1] > 1.0


class TestHarness:
    def test_run_comparison_returns_all_systems(self):
        res = run_comparison("gcn", "CR", CFG)
        assert set(res) == {"DGL", "GNNAdvisor", "FeatGraph", "TLPGNN"}
        assert all(v is not None for v in res.values())

    def test_dataset_cache_is_shared(self):
        a = get_dataset("CR", CFG)
        b = get_dataset("CR", BenchConfig(max_edges=60_000, seed=7))
        assert a is b  # same (max_edges, seed) key

    def test_spec_for_scales_device(self):
        ds = get_dataset("RD", CFG)
        spec = CFG.spec_for(ds)
        assert spec.num_sms < CFG.spec.num_sms
        full = get_dataset("CR", CFG)
        assert CFG.spec_for(full) is CFG.spec

    def test_scale_device_off(self):
        cfg = BenchConfig(max_edges=60_000, seed=7, scale_device=False)
        ds = get_dataset("RD", cfg)
        assert cfg.spec_for(ds) is cfg.spec

    def test_feature_dim_sweep_monotone(self):
        narrow = _tlpgnn_gcn_ms("PI", feat_dim=16, max_edges=60_000)
        wide = _tlpgnn_gcn_ms("PI", feat_dim=64, max_edges=60_000)
        assert narrow < wide

    def test_scale_sensitivity_bounded(self):
        a = _tlpgnn_gcn_ms("RD", max_edges=60_000)
        b = _tlpgnn_gcn_ms("RD", max_edges=240_000)
        # device scaling keeps modeled time within a small factor across scales
        assert max(a, b) / min(a, b) < 3.0
