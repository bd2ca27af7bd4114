"""Unit coverage of the symbolic access IR: pattern validation, the
sector-class classifier, the ACC/DIV/OOB analyses on synthetic plans, and
the finding-code registry they share."""

import numpy as np
import pytest

from repro.graph.generators import power_law
from repro.lint import lint_plan
from repro.lint.access import (
    SECTOR_CLASSES,
    AccessPattern,
    Affine,
    KernelAccess,
    access_findings,
    broadcast,
    conv_access,
    conv_shapes,
    gather,
    lane_stream,
    op_sector_class,
    scatter,
    sector_class,
)
from repro.lint.effects import LaunchEnvelope, effect_table
from repro.lint.registry import RULES, explain, make_finding, rule_info
from repro.lint.report import SEVERITIES
from repro.models import build_conv
from repro.models.convspec import ConvWorkload
from repro.plan import ComputeStep, ExecutionPlan, KernelOp

ENV = LaunchEnvelope(threads_per_block=128)


def _plan(ops):
    return ExecutionPlan(
        system="X", model="m", graph_name="g", pipeline_name="p",
        ops=ops,
        compute=ComputeStep(workload=None),
    )


def _op(name, effects, access):
    return KernelOp(
        name=name, kind="modeled", analyze_fn=lambda s: None,
        effects=effects, access=access,
    )


def _rules(findings):
    return {f.rule for f in findings}


@pytest.fixture(scope="module")
def workload():
    g = power_law(16, 48, seed=3)
    X = np.random.default_rng(0).standard_normal((16, 8)).astype(np.float32)
    return ConvWorkload(graph=g, X=X, reduce="sum")


# ----------------------------------------------------------------------
# IR validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"role": "mutate"},
    {"row": "diagonal"},
    {"row": "indirect"},  # indirect without via
    {"trips": ("degree", "spins")},
    {"trips_per": "block"},
    {"lanes": 0},
    {"lanes": 64},
])
def test_pattern_rejects_invalid_fields(kwargs):
    with pytest.raises(ValueError):
        AccessPattern("feat", **kwargs)


def test_constructors_produce_expected_shapes():
    b = broadcast("indptr")
    assert b.col == Affine() and sector_class(b) == "broadcast"
    ls = lane_stream("feat", trips=("feat_rounds",), lanes=16)
    assert ls.col == Affine(lane=1, iter=16)  # round advance = lane count
    g = gather("feat", via="indices")
    assert g.row_per_lane and g.row == "indirect"
    sc = scatter("out", via="indices", trips=("feat_rounds",))
    assert sc.role == "atomic" and sc.row == "indirect"
    assert abs(sc.col.lane) == 1  # lane-coalesced request, scattered rows


# ----------------------------------------------------------------------
# sector classification
# ----------------------------------------------------------------------
def test_sector_class_ladder():
    assert sector_class(broadcast("indptr")) == "broadcast"
    assert sector_class(lane_stream("feat")) == "coalesced"
    assert sector_class(AccessPattern("feat", col=Affine(lane=2))) == "strided"
    assert sector_class(gather("feat", via="indices")) == "gather"


def test_lane_unit_row_pitch_is_the_stride():
    # thread-per-vertex output walk: each lane owns a row, so the per-lane
    # address stride is the row pitch — strided unless rows are 1 wide
    p = AccessPattern("out", role="write", row="lane_unit", col=Affine(iter=1))
    assert sector_class(p, {"out": (16, 32)}) == "strided"
    assert sector_class(p, {"out": (16, 1)}) == "coalesced"


def test_op_sector_class_is_the_worst_pattern():
    acc = KernelAccess(patterns=(
        broadcast("indptr"),
        lane_stream("out", role="write"),
        gather("feat", via="indices"),
    ))
    assert op_sector_class(acc) == "gather"
    assert SECTOR_CLASSES.index("gather") == len(SECTOR_CLASSES) - 1


def test_conv_shapes_follow_the_workload(workload):
    shapes = conv_shapes(workload)
    n, E = workload.graph.num_vertices, workload.graph.num_edges
    assert shapes["feat"] == (n, 8) and shapes["indices"] == (E, 1)
    assert "att" not in shapes and "edge_vals" not in shapes
    gat = build_conv(
        "gat", workload.graph, workload.X, rng=np.random.default_rng(1)
    )
    assert conv_shapes(gat)["att"] == (n, 2)


# ----------------------------------------------------------------------
# ACC / DIV findings
# ----------------------------------------------------------------------
def test_acc001_missing_table_and_missing_pattern(workload):
    eff = effect_table(reads=("feat",), writes=("out",), launch=ENV)
    no_table = access_findings(_plan([_op("bare", eff, None)]))
    assert _rules(no_table) == {"ACC001"}
    partial = conv_access(workload, lane_stream("feat", lanes=8))  # no write
    missing = access_findings(_plan([_op("half", eff, partial)]))
    assert [(f.rule, f.buffer) for f in missing] == [("ACC001", "out")]


def test_acc002_gather_read(workload):
    eff = effect_table(reads=("feat",), writes=("out",), launch=ENV)
    acc = conv_access(
        workload,
        gather("feat", via="indices"),
        lane_stream("out", role="write", lanes=8),
    )
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert [(f.rule, f.buffer) for f in found] == [("ACC002", "feat")]


def test_acc003_strided_read_and_write(workload):
    eff = effect_table(reads=("feat",), writes=("out",), launch=ENV)
    acc = conv_access(
        workload,
        AccessPattern("feat", col=Affine(lane=4)),
        AccessPattern("out", role="write", col=Affine(lane=4)),
    )
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert [(f.rule, f.buffer) for f in found if f.rule == "ACC003"] == [
        ("ACC003", "feat"), ("ACC003", "out"),
    ]


def test_acc004_scattered_atomic(workload):
    eff = effect_table(reads=("feat",), atomics=("out",), atomic_ops=1,
                       launch=ENV)
    acc = conv_access(
        workload,
        lane_stream("feat", lanes=8),
        scatter("out", via="indices", lanes=8),
    )
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert [(f.rule, f.buffer) for f in found] == [("ACC004", "out")]


def test_div001_per_lane_degree_loop(workload):
    eff = effect_table(reads=("feat",), writes=("out",), launch=ENV)
    acc = conv_access(
        workload,
        gather("feat", via="indices", trips=("degree",), per="lane"),
        lane_stream("out", role="write", lanes=8),
    )
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert "DIV001" in _rules(found)
    # the same loop per *unit* is load imbalance, not divergence
    acc_u = conv_access(
        workload,
        gather("feat", via="indices", trips=("degree",), per="unit"),
        lane_stream("out", role="write", lanes=8),
    )
    assert "DIV001" not in _rules(access_findings(_plan([_op("k", eff, acc_u)])))


def test_div002_tail_masked_rounds(workload):
    # F=8 against 32 lanes: every round is a tail round
    eff = effect_table(reads=("feat",), writes=("out",), launch=ENV)
    acc = conv_access(
        workload,
        lane_stream("feat", trips=("feat_rounds",)),
        lane_stream("out", role="write", lanes=8),
    )
    found = access_findings(_plan([_op("k", eff, acc)]))
    div = [f for f in found if f.rule == "DIV002"]
    assert div and div[0].severity == "info"
    # 8 lanes cover the 8-wide rows exactly: no masking
    acc16 = conv_access(
        workload,
        lane_stream("feat", lanes=8, trips=("feat_rounds",)),
        lane_stream("out", role="write", lanes=8),
    )
    assert "DIV002" not in _rules(access_findings(_plan([_op("k", eff, acc16)])))


# ----------------------------------------------------------------------
# OOB bounds verification
# ----------------------------------------------------------------------
def test_oob001_flat_span_overrun(workload):
    E = workload.graph.num_edges
    eff = effect_table(reads=("indices",), writes=("out",), launch=ENV)
    acc = conv_access(
        workload,
        AccessPattern("indices", row="flat", col=Affine(lane=1), span=E + 1),
        lane_stream("out", role="write", lanes=8),
    )
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert [(f.rule, f.buffer) for f in found] == [("OOB001", "indices")]


def test_oob001_unit_row_overrun():
    acc = KernelAccess(
        patterns=(lane_stream("out", role="write"),),
        shapes={"out": (10, 32)},
        unit_rows=11,
    )
    eff = effect_table(writes=("out",), launch=ENV)
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert _rules(found) == {"OOB001"}


def test_oob001_indirect_value_range(workload):
    acc = KernelAccess(
        patterns=(lane_stream("feat", row="indirect", via="indices"),),
        shapes={"feat": (10, 32)},
        unit_rows=10,
        value_ranges={"indices": 11},  # CSR contract violated
    )
    eff = effect_table(reads=("feat",), launch=ENV)
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert _rules(found) == {"OOB001"}
    # an undeclared value range cannot be verified: no finding
    acc_unknown = KernelAccess(
        patterns=acc.patterns, shapes=acc.shapes, unit_rows=10,
    )
    assert not access_findings(_plan([_op("k", eff, acc_unknown)]))


def test_oob001_column_expression_overrun(workload):
    # const+1 shifts the full feature sweep one element past the row end
    eff = effect_table(reads=("feat",), writes=("out",), launch=ENV)
    acc = conv_access(
        workload,
        AccessPattern("feat", col=Affine(const=1, lane=1, iter=32),
                      trips=("feat_rounds",)),
        lane_stream("out", role="write", lanes=8),
    )
    found = access_findings(_plan([_op("k", eff, acc)]))
    assert ("OOB001", "feat") in {(f.rule, f.buffer) for f in found}


def test_undeclared_shapes_skip_bounds(workload):
    # transients of modeled pipelines have no declared extent
    eff = effect_table(reads=("tmp:x",), writes=("tmp:y",), launch=ENV)
    acc = KernelAccess(patterns=(
        lane_stream("tmp:x", row="flat", span=10**9),
        lane_stream("tmp:y", role="write", row="flat"),
    ))
    assert not access_findings(_plan([_op("k", eff, acc)]))


def test_clean_conv_table_yields_no_findings(workload):
    eff = effect_table(
        reads=("indptr", "indices", "feat"), writes=("out",), launch=ENV
    )
    acc = conv_access(
        workload,
        broadcast("indptr"),
        broadcast("indices", trips=("degree",)),
        lane_stream("feat", row="indirect", via="indices", lanes=8,
                    trips=("degree", "feat_rounds")),
        lane_stream("out", role="write", lanes=8, trips=("feat_rounds",)),
    )
    report = lint_plan(_plan([_op("k", eff, acc)]))
    assert not report.findings, report.render()


# ----------------------------------------------------------------------
# the finding-code registry
# ----------------------------------------------------------------------
def test_registry_covers_every_family():
    codes = set(RULES)
    for prefix in ("HAZ", "RES", "DET", "ACC", "DIV", "OOB"):
        assert any(c.startswith(prefix) for c in codes), prefix
    for info in RULES.values():
        assert info.severity in SEVERITIES
        assert info.summary and info.anchor


def test_make_finding_severity_comes_from_the_table():
    assert make_finding("OOB001", "m").severity == "error"
    assert make_finding("ACC002", "m", op="k", buffer="b").severity == "warning"
    assert make_finding("DIV002", "m").severity == "info"
    with pytest.raises(KeyError):
        make_finding("ZZZ999", "m")


def test_explain_renders_code_severity_and_anchor():
    text = explain("ACC004")
    assert text.startswith("ACC004 [warning]")
    assert "README.md#" + rule_info("ACC004").anchor in text


def test_access_summary_lists_per_buffer_classes(workload):
    acc = conv_access(
        workload,
        broadcast("indptr"),
        gather("feat", via="indices"),
    )
    s = acc.summary()
    assert "indptr:broadcast" in s and "feat:gather" in s
    assert KernelAccess().summary() == "no declared access"
    assert acc.for_buffer("feat", "read") == (acc.patterns[1],)
