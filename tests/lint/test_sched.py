"""Cross-stream race detection: the static happens-before detector, the
seeded vector-clock replay, and the agreement contract between the two."""

import pytest

from repro.lint import (
    KernelAccess,
    StreamSchedule,
    ScheduledPlan,
    VectorClockChecker,
    cross_validate_races,
    default_shared,
    lint_schedule,
    race_findings,
    replay_schedule,
    serving_schedule,
    static_race_keys,
)
from repro.lint.access import lane_stream
from repro.lint.effects import LaunchEnvelope, effect_table
from repro.plan import ComputeStep, ExecutionPlan, KernelOp

ENV = LaunchEnvelope(threads_per_block=128)


def _plan(ops):
    return ExecutionPlan(
        system="X", model="m", graph_name="g", pipeline_name="p",
        ops=ops,
        compute=ComputeStep(workload=None),
    )


def _op(name, effects):
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


def _serving_plan():
    """A TLPGNN-shaped plan: read-only graph inputs, private output."""
    ops = [
        _op("aggregate", effect_table(
            reads=("feat", "indptr", "indices"), writes=("tmp:agg",),
            launch=ENV)),
        _op("update", effect_table(
            reads=("tmp:agg",), writes=("out",), launch=ENV)),
    ]
    return _plan(ops)


def _rules(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# schedule construction
# ----------------------------------------------------------------------
def test_default_shared_is_the_read_only_graph_inputs():
    assert default_shared(_serving_plan()) == frozenset(
        {"feat", "indptr", "indices"}
    )


def test_serving_schedule_least_loaded_assignment():
    sched = serving_schedule(_serving_plan(), num_streams=2, batches=4)
    assert sched.num_streams == 2
    assert [e.stream for e in sched.entries] == [0, 1, 0, 1]
    assert [e.label for e in sched.entries] == [
        "batch0", "batch1", "batch2", "batch3"
    ]
    # each batch shares only the read-only inputs
    for entry in sched.entries:
        assert entry.shared == frozenset({"feat", "indptr", "indices"})


def test_schedule_validates_stream_indices():
    plan = _serving_plan()
    with pytest.raises(ValueError):
        StreamSchedule(
            entries=(ScheduledPlan(plan, stream=3, label="b",
                                   shared=frozenset()),),
            num_streams=2,
        )


# ----------------------------------------------------------------------
# the static detector
# ----------------------------------------------------------------------
def test_tlpgnn_serving_schedule_is_race_free():
    sched = serving_schedule(_serving_plan(), num_streams=2, batches=2)
    report = lint_schedule(sched)
    assert report.findings == ()
    assert report.ok


def test_race001_cross_stream_shared_write():
    # both batches write the SAME shared "out" buffer — a seeded
    # misconfiguration of the serving path
    sched = serving_schedule(
        _serving_plan(), num_streams=2, batches=2,
        shared=frozenset({"feat", "indptr", "indices", "out"}),
    )
    findings = race_findings(sched)
    assert "RACE001" in _rules(findings)
    f = next(f for f in findings if f.rule == "RACE001")
    assert f.buffer == "out"
    assert f.severity == "error"


def test_race002_read_vs_cross_stream_write():
    reader = _plan([_op("probe", effect_table(
        reads=("stats",), writes=("out",), launch=ENV))])
    writer = _plan([_op("bump", effect_table(
        reads=(), writes=("stats", "out2"), launch=ENV))])
    shared = frozenset({"stats"})
    sched = StreamSchedule(
        entries=(
            ScheduledPlan(reader, stream=0, label="reader", shared=shared),
            ScheduledPlan(writer, stream=1, label="writer", shared=shared),
        ),
        num_streams=2,
    )
    findings = race_findings(sched)
    assert _rules(findings) == {"RACE002"}
    assert findings[0].buffer == "stats"


def test_race003_atomic_atomic_is_a_warning():
    def counter():
        return _plan([_op("count", effect_table(
            atomics=("hist",), writes=("out",), launch=ENV))])

    shared = frozenset({"hist"})
    sched = StreamSchedule(
        entries=(
            ScheduledPlan(counter(), stream=0, label="a", shared=shared),
            ScheduledPlan(counter(), stream=1, label="b", shared=shared),
        ),
        num_streams=2,
    )
    findings = race_findings(sched)
    assert _rules(findings) == {"RACE003"}
    assert findings[0].severity == "warning"


def test_same_stream_conflicts_are_ordered_not_racy():
    # two writers of a shared buffer on the SAME stream: FIFO order is a
    # happens-before edge, so no race
    writer = _plan([_op("w", effect_table(writes=("shared_buf", "out"),
                                          launch=ENV))])
    shared = frozenset({"shared_buf"})
    sched = StreamSchedule(
        entries=(
            ScheduledPlan(writer, stream=0, label="a", shared=shared),
            ScheduledPlan(writer, stream=0, label="b", shared=shared),
        ),
        num_streams=2,
    )
    assert race_findings(sched) == []


# ----------------------------------------------------------------------
# the dynamic vector-clock replay
# ----------------------------------------------------------------------
def test_replay_completes_every_scheduled_op():
    sched = serving_schedule(_serving_plan(), num_streams=2, batches=3)
    completions = replay_schedule(sched, seed=7)
    total_ops = sum(len(e.plan.ops) for e in sched.entries)
    assert len(completions) == total_ops
    assert {c.kernel.tag for c in completions} == {
        (ei, oi)
        for ei, e in enumerate(sched.entries)
        for oi in range(len(e.plan.ops))
    }


def test_vector_clock_checker_agrees_on_clean_schedule():
    sched = serving_schedule(_serving_plan(), num_streams=2, batches=2)
    checker = VectorClockChecker(sched)
    dynamic = checker.check(replay_schedule(sched, seed=0))
    assert dynamic == set()
    assert static_race_keys(sched) == set()


def test_vector_clock_checker_agrees_on_racy_schedule():
    sched = serving_schedule(
        _serving_plan(), num_streams=2, batches=2,
        shared=frozenset({"feat", "indptr", "indices", "out"}),
    )
    static = static_race_keys(sched)
    dynamic = VectorClockChecker(sched).check(replay_schedule(sched, seed=0))
    assert static == dynamic
    assert ("RACE001", "out") in static


@pytest.mark.parametrize("seed", [0, 1, 13, 99])
def test_cross_validation_is_empty_for_every_seed(seed):
    clean = serving_schedule(_serving_plan(), num_streams=2, batches=3)
    assert cross_validate_races(clean, seed=seed) == []

    racy = serving_schedule(
        _serving_plan(), num_streams=2, batches=2,
        shared=frozenset({"feat", "indptr", "indices", "out"}),
    )
    assert cross_validate_races(racy, seed=seed) == []


def test_lint_schedule_report_label_and_errors():
    sched = serving_schedule(
        _serving_plan(), num_streams=2, batches=2,
        shared=frozenset({"feat", "indptr", "indices", "out"}),
    )
    report = lint_schedule(sched)
    assert "2 stream(s)" in report.plan_label
    assert not report.ok
    assert all(f.rule.startswith("RACE") for f in report.findings)


def test_single_stream_schedule_never_races():
    # everything serialized on one stream: total order, no concurrency
    sched = serving_schedule(
        _serving_plan(), num_streams=1, batches=4,
        shared=frozenset({"feat", "indptr", "indices", "out"}),
    )
    assert race_findings(sched) == []
    assert cross_validate_races(sched, seed=3) == []
