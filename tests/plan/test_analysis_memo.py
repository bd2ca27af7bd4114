"""One analysis per op: what the analysis memos save, and that they show.

A memo can keep every output right and still lose its point (an op is
analyzed again) or hide its work (a hit leaves no span and no event).
These tests count both on one budget-12 tuner search of the TLPGNN cell
plus one search-level optimization of the FeatGraph cell, CR gcn.
"""

import dataclasses
from collections import Counter

import pytest

from repro.bench.harness import BenchConfig, get_dataset, make_features
from repro.frameworks import SYSTEMS
from repro.kernels import TLPGNNKernel
from repro.obs.events import EventSink, set_event_sink
from repro.obs.tracer import Tracer, set_tracer
from repro.opt import AutoTuner, TunedPlanStore, optimize_plan
from repro.plan import KernelOp


@pytest.fixture(scope="module")
def cell():
    config = BenchConfig()
    ds = get_dataset("CR", config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    return ds, X, config.spec_for(ds)


def _search(cell):
    ds, X, spec = cell
    AutoTuner(budget=12, seed=7, store=TunedPlanStore()).tune(
        SYSTEMS["TLPGNN"](), "gcn", ds, X, spec
    )
    plan = SYSTEMS["FeatGraph"]().lower("gcn", ds, X, spec)
    optimize_plan(plan, spec, level="search", dataset=ds)


@pytest.fixture
def counted(monkeypatch):
    """Record every ``KernelOp.analyze`` call, count fresh analyses per
    (op, spec) and TLPGNN counter stages per (workload, group_size,
    register_cache, spec)."""
    calls, analyses, counter_stages = [], Counter(), Counter()
    alive = []  # keeps every counted object alive, so no id is reused
    analyze, compute, count = (
        KernelOp.analyze, KernelOp._compute, TLPGNNKernel._count
    )

    def analyze_(op, spec):
        calls.append(op)
        return analyze(op, spec)

    def compute_(op, spec):
        alive.append((op, spec))
        analyses[id(op), id(spec)] += 1
        return compute(op, spec)

    def count_(kernel, workload, spec):
        alive.append((workload, spec))
        key = (id(workload), kernel.group_size, kernel.register_cache)
        counter_stages[(*key, id(spec))] += 1
        return count(kernel, workload, spec)

    monkeypatch.setattr(KernelOp, "analyze", analyze_)
    monkeypatch.setattr(KernelOp, "_compute", compute_)
    monkeypatch.setattr(TLPGNNKernel, "_count", count_)
    yield calls, analyses, counter_stages
    alive.clear()


def test_each_op_is_analyzed_once_per_spec(cell, counted):
    calls, analyses, counter_stages = counted
    _search(cell)
    assert max(analyses.values()) == 1
    assert len(calls) > len(analyses)  # the searches re-score shared ops
    # the launch-geometry candidates share their counters
    tlpgnn_analyses = sum(
        1 for op in {id(op): op for op in calls}.values()
        if isinstance(op.kernel, TLPGNNKernel)
    )
    assert max(counter_stages.values()) == 1
    assert len(counter_stages) < tlpgnn_analyses


def _schedule_events(cell):
    sink = EventSink()
    previous = set_event_sink(sink)
    try:
        _search(cell)
    finally:
        set_event_sink(previous)
    return sink.by_kind("schedule")


def test_hits_re_emit_the_schedule_events(cell, monkeypatch):
    memoized = _schedule_events(cell)
    # the reference: every call analyzes afresh, emitting as it goes
    monkeypatch.setattr(KernelOp, "analyze", KernelOp._compute)
    assert memoized
    assert memoized == _schedule_events(cell)


def test_hits_open_kernel_analyze_spans(cell, counted):
    calls, analyses, _ = counted
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        _search(cell)
    finally:
        set_tracer(previous)
    spans = [s for s in tracer.walk() if s.name == "kernel.analyze"]
    hits = [s for s in spans if s.attrs.get("memo") == "hit"]
    assert len(spans) == len(calls)
    assert len(hits) == len(calls) - sum(analyses.values()) > 0
    assert all(s.attrs["num_units"] >= 0 and s.attrs["policy"] for s in hits)


@pytest.mark.parametrize(
    "system, op_name", [("TLPGNN", "conv"), ("DGL", "spmm_coo_atomic")]
)
def test_memoized_stats_are_frozen(cell, system, op_name):
    ds, X, spec = cell
    plan = SYSTEMS[system]().lower("gat", ds, X, spec)
    op = plan.conv_op if op_name == "conv" else next(
        o for o in plan.ops if o.name == op_name
    )
    stats, sched = op.analyze(spec)
    again = op.analyze(spec)
    assert again[0] is stats and again[1] is sched
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.load_sectors = 0
    with pytest.raises(ValueError, match="read-only"):
        stats.warp_cycles[0] = 0.0
    # a replaced copy is a new op: it starts without the memo
    assert dataclasses.replace(op).analyze(spec)[0] is not stats
