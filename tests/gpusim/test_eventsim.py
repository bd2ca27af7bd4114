"""The list schedule run a task at a time, and its agreement with the model.

:func:`place` is the executable schedule: it says where and when each
block (or pool chunk) runs, and the timeline draws its SM tracks from it.
These tests run it over the block and chunk costs that
:func:`hardware_schedule` and :func:`software_pool_schedule` cost, and
hold their makespans to its placements — exactly, where an event-driven
simulator once stood in for the placements and was held to within 25-35%.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    V100,
    LaunchConfig,
    achieved_occupancy,
    block_slots,
    hardware_schedule,
    place,
    software_pool_schedule,
)
from repro.gpusim.scheduler import block_max


def _launch(wpb=4):
    return LaunchConfig(num_blocks=1, threads_per_block=wpb * 32)


def _blocks(warp_cycles, launch, spec=V100):
    """The hardware distributor's placements: consecutive warps grouped
    into the launch's blocks, each holding its slot for its slowest warp
    plus ``block_schedule_cycles``, on the device's block slots.  Returns
    the modeled schedule alongside."""
    warp_cycles = np.asarray(warp_cycles, dtype=np.float64)
    sched = hardware_schedule(warp_cycles, launch, spec)
    wpb = launch.warps_per_block(spec.threads_per_warp)
    placed = place(
        block_max(warp_cycles, wpb), block_slots(launch, spec),
        per_task_overhead=spec.block_schedule_cycles,
    )
    return placed, sched


def _chunks(vertex_cycles, spec=V100, *, step=8, resident_warps=None):
    """Algorithm 1's placements: ``step`` consecutive vertices per chunk,
    pulled by the first free resident warp for one atomic on the pool
    counter.  Returns the modeled schedule alongside."""
    vertex_cycles = np.asarray(vertex_cycles, dtype=np.float64)
    sched = software_pool_schedule(
        vertex_cycles, spec, step=step, resident_warps=resident_warps
    )
    warps = spec.max_resident_warps if resident_warps is None else resident_warps
    n_chunks = -(-vertex_cycles.size // step)
    padded = np.pad(vertex_cycles, (0, n_chunks * step - vertex_cycles.size))
    placed = place(
        padded.reshape(n_chunks, step).sum(axis=1), warps,
        per_task_overhead=spec.cycles_per_atomic + spec.cycles_per_request,
    )
    return placed, sched


def _makespan(placed):
    return float(placed.end.max()) if placed.end.size else 0.0


class TestHardwareEventSim:
    def test_empty(self):
        placed, sched = _blocks(np.array([]), _launch())
        assert placed.worker.size == 0
        assert _makespan(placed) == sched.makespan_cycles == 0.0

    def test_single_block(self):
        cycles = np.array([10.0, 30.0, 20.0, 5.0])
        placed, sched = _blocks(cycles, _launch(4))
        expected = 30.0 + V100.block_schedule_cycles
        assert placed.end.tolist() == [expected]
        assert sched.makespan_cycles == expected
        assert sched.num_units == 1

    def test_blocks_spread_over_sms(self):
        cycles = np.full(80 * 4, 100.0)  # exactly one block per SM
        # more slots than SMs: the distributor fills every SM first
        assert block_slots(_launch(4), V100) > V100.num_sms
        placed, _ = _blocks(cycles, _launch(4))
        sm_busy = np.bincount(
            placed.worker % V100.num_sms,
            weights=placed.end - placed.start,
            minlength=V100.num_sms,
        )
        assert np.count_nonzero(sm_busy) == 80
        assert sm_busy.max() / sm_busy.mean() == pytest.approx(1.0)
        assert np.all(placed.start == 0.0)

    def test_occupancy_bounds(self):
        rng = np.random.default_rng(0)
        cycles = rng.uniform(10, 100, size=50_000)
        placed, _ = _blocks(cycles, _launch())
        occupancy = achieved_occupancy(cycles, _makespan(placed), V100)
        assert 0.0 < occupancy <= 1.0

    def test_matches_analytical_on_uniform(self):
        cycles = np.full(40_000, 50.0)
        placed, sched = _blocks(cycles, _launch(4))
        assert sched.makespan_cycles == _makespan(placed)

    def test_matches_analytical_on_skew(self):
        rng = np.random.default_rng(1)
        cycles = rng.pareto(1.8, size=30_000) * 50 + 10
        placed, sched = _blocks(cycles, _launch(4))
        assert sched.makespan_cycles == _makespan(placed)


class TestPoolEventSim:
    def test_empty(self):
        placed, sched = _chunks(np.array([]))
        assert placed.worker.size == 0
        assert _makespan(placed) == sched.makespan_cycles == 0.0

    def test_matches_analytical(self):
        rng = np.random.default_rng(2)
        cycles = rng.uniform(5, 50, size=60_000)
        placed, sched = _chunks(cycles, step=8)
        assert sched.makespan_cycles == _makespan(placed)
        assert sched.num_units == placed.worker.size

    def test_pool_occupancy_beats_big_blocks_on_skew(self):
        rng = np.random.default_rng(3)
        cycles = rng.pareto(1.3, size=40_000) * 100 + 10
        pool, _ = _chunks(cycles, step=4)
        blocks, _ = _blocks(cycles, _launch(16))
        assert achieved_occupancy(cycles, _makespan(pool), V100) > (
            achieved_occupancy(cycles, _makespan(blocks), V100)
        )

    def test_resident_warps_limits_throughput(self):
        cycles = np.full(20_000, 10.0)
        few, few_sched = _chunks(cycles, resident_warps=64)
        many, many_sched = _chunks(cycles, resident_warps=5120)
        assert few_sched.makespan_cycles == _makespan(few)
        assert many_sched.makespan_cycles == _makespan(many)
        assert _makespan(few) > 10 * _makespan(many)


@given(
    n=st.integers(1, 3000),
    wpb=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 5),
)
@settings(max_examples=25, deadline=None)
def test_eventsim_brackets_analytical(n, wpb, seed):
    """The modeled hardware makespan is the latest end of the placements
    across random workloads, bit for bit."""
    rng = np.random.default_rng(seed)
    cycles = rng.uniform(1, 200, size=n)
    launch = LaunchConfig(num_blocks=1, threads_per_block=wpb * 32)
    placed, sched = _blocks(cycles, launch)
    assert sched.makespan_cycles == _makespan(placed)
    assert sched.num_units == placed.worker.size
