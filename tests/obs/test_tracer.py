"""Span tracer: nesting, exception safety, disabled path, Chrome export."""

import gc
import json

import pytest

from repro.obs.tracer import (
    Span,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    span,
)


@pytest.fixture
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


class TestNesting:
    def test_children_attach_to_parent(self, tracer):
        with span("outer") as outer:
            with span("inner.a"):
                pass
            with span("inner.b") as b:
                assert current_span() is b
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in outer.children] == ["inner.a", "inner.b"]
        assert tracer.num_spans == 3

    def test_siblings_after_close(self, tracer):
        with span("first"):
            pass
        with span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_wall_time_is_positive_and_nested(self, tracer):
        with span("outer") as outer, span("inner") as inner:
            pass
        assert outer.closed and inner.closed
        assert outer.wall_seconds >= inner.wall_seconds >= 0.0
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_spans_close_under_exceptions(self, tracer):
        with pytest.raises(ValueError), span("outer"), span("inner"):
            raise ValueError("boom")
        outer, = tracer.roots
        inner, = outer.children
        assert outer.closed and inner.closed
        assert "ValueError: boom" in inner.error
        assert "ValueError: boom" in outer.error
        # the stack fully unwound: new spans are roots again
        assert current_span() is None
        with span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "after"]

    def test_modeled_time_attribution(self, tracer):
        with span("kernel") as sp:
            sp.add_modeled(0.25)
            sp.add_modeled(0.25)
        assert sp.modeled_seconds == pytest.approx(0.5)

    def test_attrs_via_set(self, tracer):
        with span("k", kernel="spmm") as sp:
            sp.set(num_units=7)
        assert sp.attrs == {"kernel": "spmm", "num_units": 7}


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert get_tracer() is None

    def test_disabled_span_is_a_shared_singleton(self):
        assert get_tracer() is None
        first = span("a")
        second = span("b")
        assert first is second  # no per-call allocation
        with first as sp:
            assert sp is None

    def test_disabled_path_allocates_no_span_objects(self):
        assert get_tracer() is None
        gc.collect()
        before = sum(1 for o in gc.get_objects() if isinstance(o, Span))
        for _ in range(200):
            with span("hot.loop"):
                pass
        gc.collect()
        after = sum(1 for o in gc.get_objects() if isinstance(o, Span))
        assert after == before

    def test_current_span_none_when_disabled(self):
        assert current_span() is None

    def test_disabled_span_is_much_cheaper_than_enabled(self):
        """Micro-benchmark guard: the no-op path must stay a fraction of
        the enabled path's cost (one global load + a shared singleton vs
        allocating and linking a real Span)."""
        import timeit

        assert get_tracer() is None

        def hot():
            with span("hot", k="v"):
                pass

        n = 20_000
        t_off = min(timeit.repeat(hot, number=n, repeat=5))
        t = Tracer()
        previous = set_tracer(t)
        try:
            t_on = min(timeit.repeat(hot, number=n, repeat=5))
        finally:
            set_tracer(previous)
        # generous 2x bound: the real gap is ~10x, but CI boxes are noisy
        assert t_off < t_on / 2, (
            f"disabled span path too slow: {t_off:.4f}s vs enabled "
            f"{t_on:.4f}s over {n} spans"
        )

    def test_set_tracer_returns_previous(self):
        t = Tracer()
        assert set_tracer(t) is None
        assert set_tracer(None) is t
        assert get_tracer() is None


class TestChromeExport:
    def _events(self, tracer):
        events = tracer.to_chrome_trace()
        # must round-trip through JSON (the file format)
        return json.loads(json.dumps(events))

    def test_required_keys_present(self, tracer):
        with span("outer", system="TLPGNN"), span("inner"):
            pass
        for ev in self._events(tracer):
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in ev, f"{ev} missing {key}"

    def test_complete_events_and_durations(self, tracer):
        with span("outer"), span("inner"):
            pass
        events = [e for e in self._events(tracer) if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        assert outer["dur"] >= inner["dur"] >= 0
        assert outer["ts"] <= inner["ts"]

    def test_timestamps_monotonic_per_track(self, tracer):
        for i in range(5):
            with span(f"s{i}"):
                pass
        events = [e for e in self._events(tracer) if e["ph"] == "X"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_modeled_time_and_attrs_exported_as_args(self, tracer):
        with span("k", kernel="spmm") as sp:
            sp.add_modeled(0.001)
        ev = next(e for e in self._events(tracer) if e["ph"] == "X")
        assert ev["args"]["kernel"] == "spmm"
        assert ev["args"]["modeled_ms"] == pytest.approx(1.0)

    def test_open_spans_not_exported(self):
        t = Tracer()
        cm = t.span("never.closed")
        cm.__enter__()
        assert all(e["ph"] != "X" for e in t.to_chrome_trace())


class TestRunSystemIntegration:
    def test_run_system_bit_identical_with_tracing_on_and_off(self):
        import numpy as np

        from repro.bench import BenchConfig, get_dataset, make_features, run_system
        from repro.frameworks import SYSTEMS
        from repro.plan import get_plan_cache

        config = BenchConfig(max_edges=60_000, seed=7)
        dataset = get_dataset("CR", config)
        X = make_features(dataset.graph.num_vertices, config.feat_dim, seed=7)

        off = run_system(SYSTEMS["TLPGNN"](), "gcn", dataset, config, X=X)
        get_plan_cache().clear()  # the first traced pass runs cold
        cold, warm = Tracer(), Tracer()
        runs = []
        for t in (cold, warm):
            previous = set_tracer(t)
            try:
                runs.append(
                    run_system(SYSTEMS["TLPGNN"](), "gcn", dataset, config, X=X)
                )
            finally:
                set_tracer(previous)
        for on in runs:
            assert np.array_equal(off.output, on.output)
            assert off.report.as_dict() == on.report.as_dict()
        # the cold traced run produced the expected span structure
        names = [s.name for s in cold.walk()]
        assert "bench.run_system" in names
        assert "TLPGNN.pipeline" in names
        assert "kernel.run" in names and "kernel.analyze" in names
        # and the warm traced run hit the cache the cold one filled, then
        # recomputed its output
        assert runs[1].plan.cached
        assert [s.name for s in warm.walk()] == [
            "bench.run_system", "plan.cache.hit", "kernel.run",
        ]
