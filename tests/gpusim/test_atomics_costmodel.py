"""Atomic cost model, kernel cost estimation, pipeline aggregation."""

import numpy as np
import pytest

from repro.gpusim import (
    V100,
    KernelStats,
    LaunchConfig,
    PipelineStats,
    atomic_serialization_cycles,
    estimate_kernel,
    estimate_pipeline,
    scatter_collision_rate,
)
from repro.gpusim.scheduler import ScheduleResult


class TestCollisionRate:
    def test_empty(self):
        assert scatter_collision_rate(np.array([])) == 0.0
        assert scatter_collision_rate(np.zeros(5)) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        deg = rng.integers(0, 1000, size=100)
        r = scatter_collision_rate(deg)
        assert 0.0 <= r <= 1.0

    def test_hubs_collide_more(self):
        uniform = np.full(100, 4)
        hubby = np.zeros(100, dtype=int)
        hubby[0] = 400
        assert scatter_collision_rate(hubby) > scatter_collision_rate(uniform)

    def test_degree_one_rarely_collides(self):
        assert scatter_collision_rate(np.ones(1000)) < 0.05


class TestSerializationCycles:
    def test_zero_ops(self):
        assert atomic_serialization_cycles(0, 0.5, V100) == 0.0

    def test_linear_in_ops(self):
        a = atomic_serialization_cycles(100, 0.0, V100)
        b = atomic_serialization_cycles(200, 0.0, V100)
        assert b == pytest.approx(2 * a)

    def test_contention_multiplies(self):
        base = atomic_serialization_cycles(100, 0.0, V100)
        hot = atomic_serialization_cycles(100, 1.0, V100)
        assert hot == pytest.approx(base * V100.atomic_contention_factor)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            atomic_serialization_cycles(10, 1.5, V100)


def _stats(**kw) -> KernelStats:
    defaults = dict(
        name="k",
        launch=LaunchConfig(num_blocks=100, threads_per_block=128),
        load_sectors=1000,
        load_requests=250,
        instructions=5000,
        warp_cycles=np.full(400, 50.0),
    )
    defaults.update(kw)
    return KernelStats(**defaults)


def _sched(makespan=1e6, busy=1e6) -> ScheduleResult:
    return ScheduleResult(
        makespan_cycles=makespan,
        busy_warp_cycles=busy,
        overhead_cycles=0.0,
        num_units=100,
        policy="hardware",
    )


class TestEstimateKernel:
    def test_roofline_max(self):
        # tiny compute, huge traffic -> bandwidth-bound
        s = _stats(load_sectors=10**9)
        t = estimate_kernel(s, _sched(makespan=1000.0, busy=1000.0), V100)
        assert t.gpu_seconds == pytest.approx(t.bandwidth_seconds)
        assert t.bandwidth_seconds > t.sm_seconds

    def test_sm_bound(self):
        s = _stats(load_sectors=10)
        t = estimate_kernel(s, _sched(makespan=1e9, busy=1e6), V100)
        assert t.gpu_seconds == pytest.approx(t.sm_seconds)

    def test_atomic_bound(self):
        s = _stats(
            atomic_sectors=100,
            atomic_requests=10,
            atomic_ops=10**9,
            atomic_collision_rate=0.5,
        )
        t = estimate_kernel(s, _sched(makespan=1000.0, busy=1000.0), V100)
        assert t.gpu_seconds == pytest.approx(t.atomic_seconds)
        assert t.atomic_seconds > 0

    def test_atomics_hurt(self):
        clean = estimate_kernel(_stats(), _sched(1000.0, 1000.0), V100)
        dirty = estimate_kernel(
            _stats(atomic_ops=10**8, atomic_requests=1, atomic_sectors=1),
            _sched(1000.0, 1000.0),
            V100,
        )
        assert dirty.gpu_seconds > clean.gpu_seconds

    def test_launch_overhead_constant(self):
        t = estimate_kernel(_stats(), _sched(), V100)
        assert t.launch_seconds == V100.kernel_launch_seconds
        assert t.runtime_seconds == pytest.approx(
            t.gpu_seconds + t.launch_seconds
        )

    def test_stall_grows_with_bw_pressure(self):
        light = estimate_kernel(
            _stats(load_sectors=10), _sched(1e7, 1e6), V100
        )
        heavy = estimate_kernel(
            _stats(load_sectors=10**9), _sched(1e3, 1e3), V100
        )
        assert heavy.stall_scoreboard_cycles > light.stall_scoreboard_cycles

    def test_stall_grows_with_uncoalescing(self):
        co = estimate_kernel(
            _stats(load_sectors=10**8, load_requests=25 * 10**6),
            _sched(1e3, 1e3),
            V100,
        )
        unco = estimate_kernel(
            _stats(load_sectors=10**8, load_requests=4 * 10**6),
            _sched(1e3, 1e3),
            V100,
        )
        assert unco.sectors_per_request > co.sectors_per_request
        assert unco.stall_scoreboard_cycles > co.stall_scoreboard_cycles

    def test_validation_runs(self):
        with pytest.raises(ValueError):
            _stats(load_sectors=-1)


class TestPipeline:
    def test_aggregation(self):
        p = PipelineStats(name="p")
        s1, s2 = _stats(name="a", workspace_bytes=100), _stats(name="b")
        p.add(s1)
        p.add(s2)
        t1 = estimate_kernel(s1, _sched(), V100)
        t2 = estimate_kernel(s2, _sched(), V100)
        pt = estimate_pipeline(p, [t1, t2], V100)
        assert pt.num_kernels == 2
        assert pt.gpu_seconds == pytest.approx(t1.gpu_seconds + t2.gpu_seconds)
        assert pt.runtime_seconds > pt.gpu_seconds  # launches included
        assert p.total_workspace_bytes == 100

    def test_framework_dispatch_adds_per_kernel(self):
        p = PipelineStats(name="p")
        s = _stats()
        p.add(s)
        t = estimate_kernel(s, _sched(), V100)
        plain = estimate_pipeline(p, [t], V100)
        fw = estimate_pipeline(p, [t], V100, framework_dispatch=True)
        assert fw.launch_seconds == pytest.approx(
            plain.launch_seconds + V100.framework_dispatch_seconds
        )

    def test_preprocess_in_total_not_runtime(self):
        p = PipelineStats(name="p", preprocess_seconds=1.0)
        s = _stats()
        p.add(s)
        t = estimate_kernel(s, _sched(), V100)
        pt = estimate_pipeline(p, [t], V100)
        assert pt.total_seconds == pytest.approx(pt.runtime_seconds + 1.0)

    def test_weighted_metric_averages(self):
        p = PipelineStats(name="p")
        s = _stats()
        p.add(s)
        t = estimate_kernel(s, _sched(), V100)
        pt = estimate_pipeline(p, [t], V100)
        assert pt.avg_sm_utilization == pytest.approx(t.sm_utilization)
        assert pt.avg_occupancy == pytest.approx(t.occupancy)


class TestKernelStats:
    def test_sector_per_request_prefers_l1(self):
        s = _stats(l1_load_sectors=500)
        assert s.sectors_per_request == pytest.approx(500 / 250)

    def test_sector_per_request_falls_back_to_dram(self):
        s = _stats()
        assert s.sectors_per_request == pytest.approx(1000 / 250)

    def test_bytes_helpers(self):
        s = _stats()
        assert s.load_bytes == 1000 * 32
        assert s.total_bytes == s.load_bytes

    def test_validation_catches_orphan_sectors(self):
        with pytest.raises(ValueError, match="store sectors"):
            _stats(store_sectors=5)
