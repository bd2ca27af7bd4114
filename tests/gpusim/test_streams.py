"""Multi-stream concurrent-kernel simulator: fluid sharing + serialization."""

import math

import pytest

from repro.gpusim.streams import MultiStreamSimulator, StreamKernel


def K(name="k", comp=1e-3, mem=0.0, launch=0.0, tag=None):
    return StreamKernel(
        name=name, comp_seconds=comp, mem_seconds=mem,
        launch_seconds=launch, tag=tag,
    )


class TestAloneKernel:
    def test_finishes_at_alone_seconds(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K(comp=2e-3, mem=5e-4), stream=0, at_s=0.0)
        sim.drain()
        (c,) = sim.completions
        assert c.finish_s == pytest.approx(2e-3)
        assert c.stretch == pytest.approx(1.0)

    def test_memory_bound_alone(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K(comp=1e-4, mem=3e-3), stream=0, at_s=0.0)
        sim.drain()
        assert sim.completions[0].finish_s == pytest.approx(3e-3)

    def test_launch_is_serialized_prefix(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K(comp=1e-3, launch=1e-5), stream=0, at_s=0.0)
        sim.drain()
        (c,) = sim.completions
        assert c.ready_s == pytest.approx(1e-5)
        assert c.latency_s == pytest.approx(1e-3 + 1e-5)

    def test_single_stream_pipeline_sums_exactly(self):
        # streams=1: latency of an n-kernel pipeline is sum(launch_i + gpu_i)
        # — the offline runtime_seconds identity the serve parity test uses.
        sim = MultiStreamSimulator(num_streams=1)
        kernels = [K(f"k{i}", comp=(i + 1) * 1e-4, launch=7e-6) for i in range(5)]
        for k in kernels:
            sim.submit(k, stream=0, at_s=0.0)
        sim.drain()
        expected = sum(k.launch_seconds + k.alone_seconds for k in kernels)
        assert sim.completions[-1].finish_s == pytest.approx(expected, rel=1e-12)


class TestSharing:
    def test_same_resource_halves_rate(self):
        sim = MultiStreamSimulator(num_streams=2)
        sim.submit(K("a", comp=1e-3), stream=0, at_s=0.0)
        sim.submit(K("b", comp=1e-3), stream=1, at_s=0.0)
        sim.drain()
        assert sim.makespan_s == pytest.approx(2e-3)
        for c in sim.completions:
            assert c.stretch == pytest.approx(2.0)

    def test_complementary_kernels_overlap(self):
        # compute-bound + memory-bound barely contend: makespan well under
        # the serialized sum and close to the max.
        sim = MultiStreamSimulator(num_streams=2)
        sim.submit(K("comp", comp=1e-3, mem=0.0), stream=0, at_s=0.0)
        sim.submit(K("mem", comp=0.0, mem=1e-3), stream=1, at_s=0.0)
        sim.drain()
        assert sim.makespan_s == pytest.approx(1e-3)

    def test_two_streams_beat_one_for_mixed_load(self):
        pair = [K("c", comp=1e-3), K("m", comp=0.0, mem=1e-3)]
        serial = MultiStreamSimulator(num_streams=1)
        for k in pair:
            serial.submit(k, stream=0, at_s=0.0)
        serial.drain()
        concurrent = MultiStreamSimulator(num_streams=2)
        for s, k in enumerate(pair):
            concurrent.submit(k, stream=s, at_s=0.0)
        concurrent.drain()
        assert concurrent.makespan_s < serial.makespan_s

    def test_avg_concurrency(self):
        sim = MultiStreamSimulator(num_streams=2)
        sim.submit(K("a", comp=1e-3), stream=0, at_s=0.0)
        sim.submit(K("b", comp=1e-3), stream=1, at_s=0.0)
        sim.drain()
        assert sim.avg_concurrency() == pytest.approx(2.0)


class TestOrderingAndCapacity:
    def test_fifo_within_stream(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K("first", comp=1e-3), stream=0, at_s=0.0)
        sim.submit(K("second", comp=1e-4), stream=0, at_s=0.0)
        sim.drain()
        names = [c.kernel.name for c in sim.completions]
        assert names == ["first", "second"]
        first, second = sim.completions
        assert second.start_s >= first.finish_s

    def test_host_serializes_simultaneous_launches(self):
        sim = MultiStreamSimulator(num_streams=3)
        for s in range(3):
            sim.submit(K(f"k{s}", comp=1e-3, launch=1e-5), stream=s, at_s=0.0)
        sim.drain()
        readies = sorted(c.ready_s for c in sim.completions)
        assert readies == pytest.approx([1e-5, 2e-5, 3e-5])

    def test_max_concurrent_caps_residency(self):
        sim = MultiStreamSimulator(num_streams=4, max_concurrent=1)
        for s in range(4):
            sim.submit(K(f"k{s}", comp=1e-3), stream=s, at_s=0.0)
        sim.drain()
        assert sim.makespan_s == pytest.approx(4e-3)
        for c in sim.completions:
            assert c.stretch == pytest.approx(1.0)

    def test_late_arrival_idles_device(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K(comp=1e-3), stream=0, at_s=5e-3)
        sim.drain()
        (c,) = sim.completions
        assert c.start_s == pytest.approx(5e-3)
        assert c.finish_s == pytest.approx(6e-3)

    def test_advance_is_incremental(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K(comp=1e-3), stream=0, at_s=0.0)
        sim.advance_to(5e-4)
        assert sim.completions == []
        assert sim.busy
        sim.advance_to(2e-3)
        assert len(sim.take_completions()) == 1
        assert sim.take_completions() == []
        assert not sim.busy

    def test_pending_work_tracks_backlog(self):
        sim = MultiStreamSimulator(num_streams=2)
        sim.submit(K(comp=1e-3, launch=1e-5), stream=0, at_s=0.0)
        assert sim.pending_work_s(0) == pytest.approx(1e-3 + 1e-5)
        assert sim.pending_work_s(1) == 0.0
        sim.drain()
        assert sim.pending_work_s(0) == 0.0


class TestValidation:
    def test_bad_stream(self):
        sim = MultiStreamSimulator(num_streams=1)
        with pytest.raises(ValueError, match="out of range"):
            sim.submit(K(), stream=1, at_s=0.0)

    def test_submission_in_past(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.advance_to(1.0)
        with pytest.raises(ValueError, match="past"):
            sim.submit(K(), stream=0, at_s=0.5)

    def test_per_stream_time_order(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K(), stream=0, at_s=1e-3)
        with pytest.raises(ValueError, match="time-ordered"):
            sim.submit(K(), stream=0, at_s=5e-4)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StreamKernel(name="bad", comp_seconds=-1.0, mem_seconds=0.0)

    def test_advance_into_past_rejected(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.advance_to(1.0)
        with pytest.raises(ValueError, match="past"):
            sim.advance_to(0.5)

    def test_zero_streams_rejected(self):
        with pytest.raises(ValueError, match="num_streams"):
            MultiStreamSimulator(num_streams=0)


class TestObservability:
    def test_tag_round_trips(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.submit(K().with_tag(("batch", 7)), stream=0, at_s=0.0)
        sim.drain()
        assert sim.completions[0].kernel.tag == ("batch", 7)

    def test_drain_handles_infinity(self):
        sim = MultiStreamSimulator(num_streams=1)
        sim.drain()  # empty drain is a no-op
        assert sim.now == 0.0
        assert math.isfinite(sim.now)
