"""Static lint over every golden regression cell.

The 24 cells of ``tests/data/golden_plan_refactor.json`` are the
pre-refactor contract: lowering each supported cell must produce a plan
with **zero error-severity findings**, TLPGNN plans must be completely
clean (the paper's atomic-free claim), and the push-style baselines must
carry exactly the atomic-merge warnings Figure 8 charts.
"""

import json
from pathlib import Path

import pytest

from repro.bench.harness import BenchConfig, get_dataset, make_features
from repro.frameworks import SYSTEMS
from repro.frameworks.base import CapacityError, UnsupportedModelError
from repro.lint import lint_plan
from repro.lint.access import access_findings, op_sector_class

GOLDEN = Path(__file__).parent.parent / "data" / "golden_plan_refactor.json"


def _cells():
    golden = json.loads(GOLDEN.read_text())
    return sorted((k, v) for k, v in golden.items() if k != "environment")


def _lower(key):
    sysname, model, abbr = key.split("/")
    config = BenchConfig()
    ds = get_dataset(abbr, config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    plan = SYSTEMS[sysname]().lower(model, ds, X, config.spec_for(ds))
    return plan, config.spec_for(ds)


@pytest.mark.parametrize("key,want", _cells(), ids=[k for k, _ in _cells()])
def test_golden_cell_lints_clean_of_errors(key, want):
    if want is None:
        with pytest.raises((UnsupportedModelError, CapacityError)):
            _lower(key)
        return
    plan, spec = _lower(key)
    report = lint_plan(plan, spec)
    assert not report.errors, report.render()

    sysname, model, _abbr = key.split("/")
    rules = {f.rule for f in report.findings}
    if sysname == "TLPGNN":
        # the paper's central claim: no atomics, nothing to flag at all
        assert report.ok and not report.findings, report.render()
    elif sysname == "GNNAdvisor":
        # per-group partials merge with atomicAdd (Figure 8)
        assert "DET001" in rules, report.render()
    elif sysname == "DGL" and model == "gat":
        # the COO-scatter spmm of the 18-kernel GAT pipeline
        assert "DET001" in rules, report.render()
        assert any(
            f.rule == "DET001" and f.op == "spmm_coo_atomic"
            for f in report.findings
        )
    elif sysname == "DGL" and model == "gcn":
        # cuSPARSE row-parallel spmm is deterministic
        assert "DET001" not in rules, report.render()


def test_every_golden_op_declares_effects():
    """No HAZ001 anywhere: all four lowering rules declare full tables."""
    for key, want in _cells():
        if want is None:
            continue
        plan, spec = _lower(key)
        assert all(op.effects is not None for op in plan.ops), key


def test_every_golden_op_declares_access():
    """No ACC001 anywhere: every op carries an access table covering every
    effects-named buffer (the acceptance bar for the access layer)."""
    for key, want in _cells():
        if want is None:
            continue
        plan, _spec = _lower(key)
        assert all(op.access is not None for op in plan.ops), key
        acc001 = [f for f in access_findings(plan) if f.rule == "ACC001"]
        assert not acc001, (key, [(f.op, f.buffer) for f in acc001])


def test_golden_cells_are_shape_and_liveness_clean():
    """The dataflow verifier proves every supported cell well-shaped and
    within HBM: zero SHAPE/LIVE findings of any severity."""
    for key, want in _cells():
        if want is None:
            continue
        plan, spec = _lower(key)
        report = lint_plan(plan, spec)
        dataflow = [f for f in report.findings
                    if f.rule.startswith(("SHAPE", "LIVE"))]
        assert not dataflow, (key, [f.render() for f in dataflow])


def test_golden_footprints_render_symbolically():
    """Plans with declared shapes get a symbolic peak expression in the
    workload's (n, m, f) vocabulary."""
    from repro.lint import peak_footprint

    plan, _ = _lower("TLPGNN/gcn/CR")
    report = peak_footprint(plan)
    assert report.peak_bytes > 0
    assert "n*f" in report.expression


def test_golden_access_tells_the_figure7_story():
    """TLPGNN's conv launch is statically coalesced; DGL's GAT pipeline
    carries the gather and scatter flags the paper charts."""
    plan, _ = _lower("TLPGNN/gcn/CR")
    conv = [op for op in plan.ops if op.kind == "conv"]
    assert conv
    for op in conv:
        assert op_sector_class(op.access) in ("broadcast", "coalesced")
    plan, _ = _lower("DGL/gat/CR")
    flagged = {(f.rule, f.op) for f in access_findings(plan)}
    assert ("ACC004", "spmm_coo_atomic") in flagged, flagged
    assert any(rule == "ACC002" for rule, _op in flagged), flagged
