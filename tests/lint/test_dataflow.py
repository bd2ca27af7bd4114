"""Whole-plan dataflow verification: SHAPE/LIVE rules, liveness ranges,
the peak-footprint bound, and the ``dead_transients`` optimizer export."""

from dataclasses import replace

import pytest

from repro.gpusim.config import V100
from repro.lint import (
    KernelAccess,
    dead_transients,
    lint_plan,
    live_ranges,
    liveness_findings,
    peak_footprint,
    plan_symbols,
    shape_findings,
)
from repro.lint.access import lane_stream
from repro.lint.effects import (
    BufferEffect,
    KernelEffects,
    LaunchEnvelope,
    effect_table,
)
from repro.plan import ComputeStep, ExecutionPlan, KernelOp

ENV = LaunchEnvelope(threads_per_block=128)


class _Graph:
    def __init__(self, n, m):
        self.num_vertices = n
        self.num_edges = m


class _Workload:
    """Duck-typed workload: exactly what plan_symbols consults."""

    def __init__(self, n=8, m=20, f=4):
        self.graph = _Graph(n, m)
        self.feat_dim = f


def _plan(ops, workload=None):
    return ExecutionPlan(
        system="X", model="m", graph_name="g", pipeline_name="p",
        ops=ops,
        compute=ComputeStep(workload=workload),
    )


def _op(name, effects, shapes=None):
    access = None
    if effects is not None:
        access = KernelAccess(
            patterns=tuple(
                lane_stream(b.buffer, role=b.mode, row="flat")
                for b in effects.buffers
            ),
            shapes=dict(shapes or {}),
        )
    return KernelOp(
        name=name, kind="modeled", analyze_fn=lambda s: None,
        effects=effects, access=access,
    )


def _rules(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# the symbol table
# ----------------------------------------------------------------------
def test_plan_symbols_come_from_the_compute_workload():
    sym = plan_symbols(_plan([], workload=_Workload(n=10, m=30, f=16)))
    assert (sym.n, sym.m, sym.f) == (10, 30, 16)
    assert sym.render(10 * 16) == "n*f"
    assert sym.render(11) == "n+1"
    assert sym.render(30) == "m"
    assert sym.render(7) == "7"  # nothing matches: digits


def test_plan_symbols_none_without_any_workload():
    assert plan_symbols(_plan([_op("k", effect_table(writes=("o",),
                                                     launch=ENV))])) is None


# ----------------------------------------------------------------------
# SHAPE rules
# ----------------------------------------------------------------------
def test_shape001_producer_consumer_disagreement():
    ops = [
        _op("producer", effect_table(writes=("tmp:x",), launch=ENV),
            shapes={"tmp:x": (10, 1)}),
        _op("consumer", effect_table(reads=("tmp:x",), writes=("out",),
                                     launch=ENV),
            shapes={"tmp:x": (5, 1)}),
    ]
    findings = shape_findings(_plan(ops))
    assert _rules(findings) == {"SHAPE001"}
    (f,) = findings
    assert f.buffer == "tmp:x" and f.op == "consumer"


def test_shape003_under_allocated_transient():
    ops = [
        _op("producer", effect_table(writes=("tmp:x",), launch=ENV),
            shapes={"tmp:x": (10, 1)}),
        _op("consumer", effect_table(reads=("tmp:x",), writes=("out",),
                                     launch=ENV),
            shapes={"tmp:x": (20, 1)}),  # reads past the allocation
    ]
    findings = shape_findings(_plan(ops))
    assert _rules(findings) == {"SHAPE003"}


def test_shape002_dtype_narrowing_write():
    ops = [
        KernelOp(
            name="wide", kind="modeled", analyze_fn=lambda s: None,
            effects=KernelEffects(
                buffers=(BufferEffect("tmp:x", "write", dtype="f32"),),
                launch=ENV,
            ),
        ),
        KernelOp(
            name="narrow", kind="modeled", analyze_fn=lambda s: None,
            effects=KernelEffects(
                buffers=(
                    BufferEffect("tmp:x", "read", dtype="f16"),
                    BufferEffect("out", "write", dtype="f32"),
                ),
                launch=ENV,
            ),
        ),
    ]
    findings = shape_findings(_plan(ops))
    assert "SHAPE002" in _rules(findings)
    f = next(f for f in findings if f.rule == "SHAPE002")
    assert f.buffer == "tmp:x" and "f16" in f.message


def test_shape004_standard_buffer_contradicts_workload():
    wl = _Workload(n=8, m=20, f=4)
    ops = [
        _op("conv", effect_table(reads=("feat",), writes=("out",),
                                 launch=ENV),
            shapes={"out": (8, 5)}),  # workload implies (8, 4)
    ]
    findings = shape_findings(_plan(ops, workload=wl))
    assert _rules(findings) == {"SHAPE004"}
    (f,) = findings
    assert f.buffer == "out"


def test_consistent_declarations_are_clean():
    wl = _Workload(n=8, m=20, f=4)
    ops = [
        _op("producer", effect_table(reads=("feat",), writes=("tmp:x",),
                                     launch=ENV),
            shapes={"feat": (8, 4), "tmp:x": (20, 1)}),
        _op("consumer", effect_table(reads=("tmp:x",), writes=("out",),
                                     launch=ENV),
            shapes={"tmp:x": (20, 1), "out": (8, 4)}),
    ]
    assert shape_findings(_plan(ops, workload=wl)) == []


def test_shape_rules_flow_through_lint_plan():
    ops = [
        _op("producer", effect_table(writes=("tmp:x",), launch=ENV),
            shapes={"tmp:x": (10, 1)}),
        _op("consumer", effect_table(reads=("tmp:x",), writes=("out",),
                                     launch=ENV),
            shapes={"tmp:x": (20, 1)}),
    ]
    report = lint_plan(_plan(ops))
    assert any(f.rule == "SHAPE003" for f in report.findings)
    assert not report.ok


# ----------------------------------------------------------------------
# liveness, footprint, LIVE rules
# ----------------------------------------------------------------------
def _footprint_plan():
    wl = _Workload(n=8, m=20, f=4)
    ops = [
        _op("stage1", effect_table(reads=("feat",), writes=("tmp:x",),
                                   launch=ENV),
            shapes={"feat": (8, 4), "tmp:x": (20, 1)}),
        _op("stage2", effect_table(reads=("tmp:x",), writes=("out",),
                                   launch=ENV),
            shapes={"tmp:x": (20, 1), "out": (8, 4)}),
    ]
    return _plan(ops, workload=wl)


def test_live_ranges_pin_inputs_and_bound_transients():
    ranges = {r.buffer: r for r in live_ranges(_footprint_plan())}
    assert ranges["feat"].pinned and ranges["out"].pinned
    tmp = ranges["tmp:x"]
    assert not tmp.pinned
    assert (tmp.first, tmp.last) == (0, 1)
    assert tmp.bytes == 20 * 4  # f32 elements


def test_peak_footprint_counts_concurrently_live_buffers():
    report = peak_footprint(_footprint_plan())
    # feat + out pinned (8*4 elems each) + tmp:x live at both ops
    assert report.peak_bytes == (32 + 32 + 20) * 4
    assert "n*f" in report.expression and "m" in report.expression


def test_live001_over_hbm_is_an_error():
    spec = replace(V100, dram_bytes=200)  # 336 B needed
    findings = liveness_findings(_footprint_plan(), spec)
    assert _rules(findings) == {"LIVE001"}
    assert findings[0].severity == "error"


def test_live002_above_80_percent_warns():
    spec = replace(V100, dram_bytes=400)  # 336/400 = 84%
    findings = liveness_findings(_footprint_plan(), spec)
    assert _rules(findings) == {"LIVE002"}
    assert findings[0].severity == "warning"


def test_liveness_clean_with_headroom():
    assert liveness_findings(_footprint_plan(), V100) == []


# ----------------------------------------------------------------------
# the dead_transients optimizer export
# ----------------------------------------------------------------------
def test_dead_transients_spots_unconsumed_outputs():
    ops = [
        _op("useful", effect_table(writes=("tmp:a",), launch=ENV)),
        _op("wasted", effect_table(writes=("tmp:dead",), launch=ENV)),
        _op("sink", effect_table(reads=("tmp:a",), writes=("out",),
                                 launch=ENV)),
    ]
    assert dead_transients(_plan(ops)) == frozenset({"tmp:dead"})


def test_dead_transients_respects_via_indirections():
    from repro.lint.access import gather

    reader = KernelOp(
        name="gatherer", kind="modeled", analyze_fn=lambda s: None,
        effects=effect_table(reads=("feat",), writes=("out",), launch=ENV),
        access=KernelAccess(
            patterns=(
                gather("feat", via="tmp:idx"),
                lane_stream("out", role="write", row="flat"),
            )
        ),
    )
    ops = [_op("indexer", effect_table(writes=("tmp:idx",), launch=ENV)),
           reader]
    # tmp:idx is consumed as an indirection index, so it is NOT dead
    assert dead_transients(_plan(ops)) == frozenset()


def test_die_pass_removes_only_liveness_proven_dead_ops():
    from repro.opt.passes import PassContext
    from repro.opt.rewrites import DeadIntermediateElimination

    ops = [
        _op("wasted", effect_table(writes=("tmp:dead",), launch=ENV)),
        _op("useful", effect_table(writes=("tmp:a",), launch=ENV)),
        _op("sink", effect_table(reads=("tmp:a",), writes=("out",),
                                 launch=ENV)),
    ]
    plan = _plan(ops)
    rewritten = DeadIntermediateElimination().apply(
        plan, PassContext(spec=V100)
    )
    assert rewritten is not None
    assert [op.name for op in rewritten.ops] == ["useful", "sink"]


def test_die_pass_cascades_through_orphaned_chains():
    from repro.opt.passes import PassContext
    from repro.opt.rewrites import DeadIntermediateElimination

    ops = [
        _op("a", effect_table(writes=("tmp:1",), launch=ENV)),
        _op("b", effect_table(reads=("tmp:1",), writes=("tmp:2",),
                              launch=ENV)),
        _op("sink", effect_table(reads=(), writes=("out",), launch=ENV)),
    ]
    plan = _plan(ops)
    rewritten = DeadIntermediateElimination().apply(
        plan, PassContext(spec=V100)
    )
    assert rewritten is not None
    # tmp:2 unread -> b dies; that orphans tmp:1 -> a dies too
    assert [op.name for op in rewritten.ops] == ["sink"]


# ----------------------------------------------------------------------
# golden integration: an ill-shaped "user spec" lowering is caught
# ----------------------------------------------------------------------
def test_ill_shaped_lowering_is_flagged_where_valid_one_is_clean():
    wl = _Workload(n=6, m=14, f=8)
    good = [
        _op("stage", effect_table(reads=("feat",), writes=("out",),
                                  launch=ENV),
            shapes={"feat": (6, 8), "out": (6, 8)}),
    ]
    assert shape_findings(_plan(good, workload=wl)) == []
    bad = [
        _op("stage", effect_table(reads=("feat",), writes=("out",),
                                  launch=ENV),
            shapes={"feat": (6, 8), "out": (14, 1)}),  # edge-major output
    ]
    assert _rules(shape_findings(_plan(bad, workload=wl))) == {"SHAPE004"}


@pytest.mark.parametrize("dtype,width", [("f64", 8), ("f16", 2), ("i8", 1)])
def test_dtype_width_table(dtype, width):
    from repro.lint.dataflow import DTYPE_BYTES

    assert DTYPE_BYTES[dtype] == width
