"""Unit coverage of the hazard/resource/determinism rules on synthetic plans
plus the ``lint=`` execution gate on ``GNNSystem.run``."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.frameworks.tlpgnn_engine import TLPGNNEngine
from repro.graph.generators import power_law
from repro.lint import (
    Finding,
    KernelAccess,
    LintReport,
    PlanLintError,
    lint_plan,
    severity_rank,
    sort_findings,
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


def _plan(ops, fingerprint=None):
    return ExecutionPlan(
        system="X", model="m", graph_name="g", pipeline_name="p",
        ops=ops,
        compute=ComputeStep(workload=None),
        fingerprint=fingerprint,
    )


def _op(name, effects):
    # declare a matching coalesced access table so these tests stay focused
    # on the hazard/resource/determinism rules (no incidental ACC001)
    access = None
    if effects is not None:
        access = KernelAccess(
            patterns=tuple(
                lane_stream(b.buffer, role=b.mode, row="flat")
                for b in effects.buffers
            )
        )
    return KernelOp(
        name=name, kind="modeled", analyze_fn=lambda s: None,
        effects=effects, access=access,
    )


def _rules(report):
    return {f.rule for f in report.findings}


# ----------------------------------------------------------------------
# hazard rules
# ----------------------------------------------------------------------
def test_haz001_missing_effect_table():
    report = lint_plan(_plan([_op("mystery", None)]))
    assert _rules(report) == {"HAZ001"}
    assert report.errors


def test_haz002_nonexclusive_write_without_atomic():
    racy = KernelEffects(
        buffers=(BufferEffect("out", "write", exclusive=False),), launch=ENV
    )
    report = lint_plan(_plan([_op("racer", racy)]))
    assert _rules(report) == {"HAZ002"}


def test_haz002_not_raised_for_declared_atomic_merge():
    merged = effect_table(atomics=("out",), atomic_ops=10, launch=ENV)
    report = lint_plan(_plan([_op("scatter", merged)]))
    # the atomic merge is race-free; only determinism flags it
    assert _rules(report) == {"DET001"}
    assert not report.errors


def test_haz003_use_before_def_of_transient():
    report = lint_plan(_plan([
        _op("reader", effect_table(reads=("tmp:ghost",), writes=("tmp:a",),
                                   launch=ENV)),
    ]))
    assert _rules(report) == {"HAZ003"}


def test_haz003_ordering_is_respected():
    ops = [
        _op("producer", effect_table(writes=("tmp:a",), launch=ENV)),
        _op("consumer", effect_table(reads=("tmp:a",), writes=("out",),
                                     launch=ENV)),
    ]
    assert lint_plan(_plan(ops)).ok
    assert not lint_plan(_plan(ops[::-1])).ok  # reversed: use before def


def test_haz004_rng_read_only_under_fingerprint():
    rng_op = _op("sampler", effect_table(
        writes=("out",), launch=ENV, reads_rng=True))
    fingerprinted = lint_plan(_plan([rng_op], fingerprint="abc"))
    assert "HAZ004" in _rules(fingerprinted)
    unkeyed = lint_plan(_plan([rng_op]))
    assert "HAZ004" not in _rules(unkeyed)
    assert "DET002" in _rules(unkeyed)  # still a determinism warning


# ----------------------------------------------------------------------
# resource rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("env,rule", [
    (LaunchEnvelope(threads_per_block=2048), "RES001"),
    (LaunchEnvelope(threads_per_block=128, regs_per_thread=300), "RES002"),
    (LaunchEnvelope(threads_per_block=128, shared_mem_per_block=200_000),
     "RES003"),
    (LaunchEnvelope(threads_per_block=1024, regs_per_thread=100), "RES004"),
])
def test_resource_errors(env, rule):
    report = lint_plan(_plan([_op("k", effect_table(writes=("o",),
                                                    launch=env))]))
    assert rule in _rules(report)
    assert report.errors


def test_res005_low_occupancy_is_a_warning():
    env = LaunchEnvelope(threads_per_block=256, shared_mem_per_block=90_000)
    report = lint_plan(_plan([_op("k", effect_table(writes=("o",),
                                                    launch=env))]))
    assert _rules(report) == {"RES005"}
    assert report.warnings and not report.errors


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------
def test_findings_sort_errors_first():
    findings = [
        Finding(severity="info", rule="ZZZ", message="c"),
        Finding(severity="warning", rule="DET001", message="b", op="k"),
        Finding(severity="error", rule="HAZ002", message="a", op="k"),
    ]
    ordered = sort_findings(findings)
    assert [f.severity for f in ordered] == ["error", "warning", "info"]
    assert severity_rank("error") < severity_rank("warning")


def test_report_render_shapes():
    clean = LintReport(plan_label="L", findings=())
    assert clean.render() == "L: clean"
    dirty = LintReport(plan_label="L", findings=(
        Finding(severity="error", rule="HAZ002", message="boom", op="k"),
    ))
    text = dirty.render()
    assert "1 error(s)" in text and "HAZ002 @ k" in text


# ----------------------------------------------------------------------
# the run(lint=...) gate
# ----------------------------------------------------------------------
_BAD = KernelEffects(
    buffers=(BufferEffect("out", "write", exclusive=False),), launch=ENV
)


class _BrokenSystem(TLPGNNEngine):
    """TLPGNN lowering with a deliberately race-declared conv op."""

    name = "Broken"

    def _lower(self, *args, **kwargs):
        plan = super()._lower(*args, **kwargs)
        plan.ops = [replace(op, effects=_BAD) for op in plan.ops]
        return plan


@pytest.fixture
def cell():
    g = power_law(30, 90, seed=3)
    X = np.random.default_rng(4).standard_normal((30, 8)).astype(np.float32)
    return g, X


def test_run_lint_strict_raises_on_errors(cell):
    g, X = cell
    with pytest.raises(PlanLintError) as exc:
        _BrokenSystem().run("gcn", g, X, lint="strict")
    assert any(f.rule == "HAZ002" for f in exc.value.report.findings)


def test_run_lint_warn_executes_and_warns(cell):
    g, X = cell
    with pytest.warns(UserWarning, match="HAZ002"):
        res = _BrokenSystem().run("gcn", g, X, lint="warn")
    assert res.output.shape == (30, 8)


def test_run_lint_strict_passes_clean_system(cell):
    g, X = cell
    res = TLPGNNEngine().run("gcn", g, X, lint="strict")
    assert res.output.shape == (30, 8)


def test_run_lint_rejects_bad_mode(cell):
    g, X = cell
    with pytest.raises(ValueError, match="lint must be"):
        TLPGNNEngine().run("gcn", g, X, lint="definitely")
