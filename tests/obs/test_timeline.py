"""Chrome-trace timelines: kernel spans and the per-SM block tracks."""

import json
from collections import Counter, defaultdict

import pytest

from repro.bench import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import SYSTEMS
from repro.gpusim import block_slots
from repro.obs.timeline import build_timeline

CONFIG = BenchConfig(max_edges=60_000, seed=7)


def _run(system="TLPGNN", model="gcn", dataset="CR"):
    ds = get_dataset(dataset, CONFIG)
    X = make_features(ds.graph.num_vertices, CONFIG.feat_dim, seed=CONFIG.seed)
    res = run_system(SYSTEMS[system](), model, ds, CONFIG, X=X)
    return res, CONFIG.spec_for(ds)


def _num_blocks(stats, spec):
    wpb = stats.launch.warps_per_block(spec.threads_per_warp)
    return -(-stats.warp_cycles.size // wpb)


class TestSMTracks:
    """The SM tracks place each kernel's blocks with the hardware
    distributor's list schedule; the cap keeps a prefix in block order."""

    @pytest.fixture(scope="class")
    def cell(self):
        res, spec = _run(system="DGL")  # six kernels of 11 to 338 blocks
        names = [t.name for t in res.report.timing.kernels]
        assert len(set(names)) == len(names)
        return res, spec

    def _kernels(self, cell):
        res, spec = cell
        return [
            (timing.name, stats, _num_blocks(stats, spec))
            for stats, timing in zip(
                res.report.stats.kernels, res.report.timing.kernels, strict=True
            )
        ]

    def test_first_block_slots_blocks_go_round_robin(self, cell):
        res, spec = cell
        trace = build_timeline(res, spec)
        for name, stats, blocks in self._kernels(cell):
            sm = {
                ev["args"]["block"]: ev["tid"] - 1
                for ev in trace["traceEvents"] if ev["name"] == f"{name} block"
            }
            assert len(sm) == blocks
            first = min(block_slots(stats.launch, spec), blocks)
            assert [sm[b] for b in range(first)] == [
                b % spec.num_sms for b in range(first)
            ]

    @pytest.mark.parametrize("cap", [4, 51])
    def test_cap_draws_spans_then_instants_in_block_order(self, cell, cap):
        res, spec = cell
        events = build_timeline(
            res, spec, max_block_events_per_kernel=cap
        )["traceEvents"]
        units = Counter()
        for name, _, blocks in self._kernels(cell):
            drawn = sorted(
                ev["args"]["block"] for ev in events
                if ev["name"] == f"{name} block"
            )
            assert drawn == list(range(min(blocks, -(-(cap - 1) // 2))))
            units.update(range(min(blocks, (cap - 1) // 2)))
        instants = [ev for ev in events if ev["name"] == "warp_complete"]
        assert Counter(ev["args"]["unit"] for ev in instants) == units

    @pytest.mark.parametrize("cap", [4, 51, 20_000])
    def test_dropped_events_count_what_the_cap_left_out(self, cell, cap):
        res, spec = cell
        trace = build_timeline(res, spec, max_block_events_per_kernel=cap)
        assert trace["otherData"]["dropped_events"] == sum(
            max(1 + 2 * blocks - cap, 0) for _, _, blocks in self._kernels(cell)
        )


class TestTimeline:
    @pytest.fixture(scope="class")
    def trace(self):
        res, spec = _run()
        trace = build_timeline(res, spec)
        # the exported object must round-trip through JSON
        return json.loads(json.dumps(trace)), res, spec

    def test_required_chrome_keys(self, trace):
        obj, _, _ = trace
        assert "traceEvents" in obj
        for ev in obj["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in ev, f"{ev} missing {key}"

    def test_one_track_per_simulated_sm(self, trace):
        obj, _, spec = trace
        sm_tracks = [
            ev for ev in obj["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
            and ev["args"]["name"].startswith("SM ")
        ]
        assert len(sm_tracks) == spec.num_sms
        # and every SM track actually carries block activity for this run
        with_blocks = {
            ev["tid"] for ev in obj["traceEvents"]
            if ev["ph"] == "X" and ev["tid"] > 0 and ev["pid"] == 2
        }
        assert len(with_blocks) == spec.num_sms

    def test_kernel_spans_reconcile_with_gpu_time(self, trace):
        obj, res, _ = trace
        kernel_spans = [
            ev for ev in obj["traceEvents"]
            if ev["ph"] == "X" and ev["pid"] == 2 and ev["tid"] == 0
        ]
        assert len(kernel_spans) == res.report.kernel_launches
        total_us = sum(ev["dur"] for ev in kernel_spans)
        assert total_us / 1e3 == pytest.approx(res.report.gpu_time_ms, rel=0.01)

    def test_timestamps_monotonic_per_track(self, trace):
        obj, _, _ = trace
        by_track = defaultdict(list)
        for ev in obj["traceEvents"]:
            if ev["ph"] != "M":
                by_track[(ev["pid"], ev["tid"])].append(ev["ts"])
        assert by_track, "no timed events at all"
        for track, ts in by_track.items():
            assert ts == sorted(ts), f"track {track} not monotonic"
            assert all(t >= 0 for t in ts)

    def test_block_spans_fit_inside_their_kernel(self, trace):
        obj, res, _ = trace
        end_us = res.report.gpu_time_ms * 1e3
        for ev in obj["traceEvents"]:
            if ev["ph"] == "X" and ev["pid"] == 2 and ev["tid"] > 0:
                assert ev["ts"] + ev["dur"] <= end_us * (1 + 1e-9)

    def test_multi_kernel_pipeline_dgl(self):
        res, spec = _run(system="DGL")
        trace = build_timeline(res, spec)
        kernel_spans = [
            ev for ev in trace["traceEvents"]
            if ev["ph"] == "X" and ev["pid"] == 2 and ev["tid"] == 0
        ]
        assert len(kernel_spans) == 6  # DGL GCN = 6 kernels
        total_us = sum(ev["dur"] for ev in kernel_spans)
        assert total_us / 1e3 == pytest.approx(res.report.gpu_time_ms, rel=0.01)

    def test_atomic_serialization_counter_present_for_atomic_kernels(self):
        res, spec = _run(system="DGL", model="gat")
        trace = build_timeline(res, spec)
        counters = [
            ev for ev in trace["traceEvents"] if ev["ph"] == "C"
        ]
        assert any(ev["args"]["atomic_ops"] > 0 for ev in counters)

    def test_host_tracer_track_included(self):
        from repro.obs.tracer import Tracer, set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            res, spec = _run()
        finally:
            set_tracer(previous)
        trace = build_timeline(res, spec, tracer=tracer)
        host = [ev for ev in trace["traceEvents"] if ev["pid"] == 1]
        assert any(ev["name"] == "bench.run_system" for ev in host)

    def test_event_cap_reported_not_silent(self):
        res, spec = _run()
        trace = build_timeline(res, spec, max_block_events_per_kernel=4)
        assert trace["otherData"]["dropped_events"] > 0
