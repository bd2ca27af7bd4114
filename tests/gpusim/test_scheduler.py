"""Scheduling models: the list schedule's placements and makespan,
hardware/static/software policies."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    V100,
    LaunchConfig,
    greedy_makespan,
    hardware_schedule,
    place,
    software_pool_schedule,
    static_schedule,
)
from repro.gpusim.occupancy import envelope_occupancy


class TestGreedyMakespan:
    def test_empty(self):
        assert greedy_makespan(np.array([]), 4) == 0.0

    def test_fewer_tasks_than_workers(self):
        assert greedy_makespan(np.array([5.0, 3.0]), 8) == 5.0

    def test_exact_simple(self):
        # 4 tasks of 1 on 2 workers -> 2
        assert greedy_makespan(np.ones(4), 2, exact=True) == 2.0

    def test_single_worker_sums(self):
        costs = np.array([1.0, 2.0, 3.0])
        assert greedy_makespan(costs, 1, exact=True) == 6.0

    def test_graham_bounds(self):
        rng = np.random.default_rng(0)
        costs = rng.exponential(10.0, size=500)
        for workers in (3, 16, 64):
            span = greedy_makespan(costs, workers, exact=True)
            lower = max(costs.sum() / workers, costs.max())
            assert lower <= span <= costs.sum() / workers + costs.max() + 1e-9

    def test_bound_tracks_simulation(self):
        rng = np.random.default_rng(1)
        costs = rng.pareto(2.0, size=5000) * 10 + 1
        exact = greedy_makespan(costs, 100, exact=True)
        approx = greedy_makespan(costs, 100, exact=False)
        lower = max(costs.sum() / 100, costs.max())
        # the bound sits between the trivial lower bound and ~1.5x the sim
        assert lower - 1e-9 <= approx <= 1.5 * exact
        assert approx == pytest.approx(exact, rel=0.4)

    def test_per_task_overhead(self):
        base = greedy_makespan(np.ones(100), 10, exact=True)
        over = greedy_makespan(np.ones(100), 10, per_task_overhead=1.0, exact=True)
        assert over == pytest.approx(base * 2)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            greedy_makespan(np.ones(3), 0)


class TestPlace:
    def test_empty(self):
        placed = place(np.array([]), 4)
        assert placed.worker.size == placed.start.size == placed.end.size == 0

    def test_fewer_tasks_than_workers(self):
        placed = place(np.array([5.0, 3.0]), 8)
        assert placed.worker.tolist() == [0, 1]
        assert placed.start.tolist() == [0.0, 0.0]
        assert placed.end.tolist() == [5.0, 3.0]

    def test_ties_go_to_the_lowest_index(self):
        # worker 1 frees first and takes task 2; then both free at 2.0 and
        # worker 0 wins the tie
        placed = place(np.array([2.0, 1.0, 1.0, 1.0]), 2)
        assert placed.worker.tolist() == [0, 1, 1, 0]
        assert placed.start.tolist() == [0.0, 0.0, 1.0, 2.0]

    def test_each_worker_runs_its_tasks_back_to_back(self):
        costs = np.random.default_rng(6).uniform(1.0, 10.0, 500)
        placed = place(costs, 7, per_task_overhead=0.5)
        np.testing.assert_allclose(placed.end - placed.start, costs + 0.5)
        for w in range(7):
            mine = placed.worker == w
            assert placed.start[mine][0] == 0.0
            assert np.array_equal(placed.start[mine][1:], placed.end[mine][:-1])
        # tasks are taken in order
        assert np.all(np.diff(placed.start) >= 0.0)

    def test_invalid_workers(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                place(np.ones(3), bad)


class TestHardwareSchedule:
    def _launch(self, wpb=4):
        return LaunchConfig(num_blocks=1, threads_per_block=wpb * 32)

    def test_empty(self):
        r = hardware_schedule(np.array([]), self._launch(), V100)
        assert r.makespan_cycles == 0.0
        assert r.num_units == 0

    def test_block_retires_on_slowest_warp(self):
        # one block of 4 warps: makespan at least the max warp + overhead
        cycles = np.array([10.0, 20.0, 30.0, 1000.0])
        r = hardware_schedule(cycles, self._launch(4), V100)
        assert r.makespan_cycles >= 1000.0

    def test_busy_cycles_sum(self):
        rng = np.random.default_rng(2)
        cycles = rng.uniform(1, 100, size=1000)
        r = hardware_schedule(cycles, self._launch(), V100)
        assert r.busy_warp_cycles == pytest.approx(cycles.sum())

    def test_fewer_warps_per_block_balances_better(self):
        rng = np.random.default_rng(3)
        cycles = rng.pareto(1.5, size=20_000) * 100 + 10
        r1 = hardware_schedule(
            cycles, LaunchConfig(num_blocks=1, threads_per_block=32), V100
        )
        r16 = hardware_schedule(
            cycles, LaunchConfig(num_blocks=1, threads_per_block=512), V100
        )
        # intra-block imbalance (max-of-16) should cost more overall
        assert r16.makespan_cycles >= r1.makespan_cycles * 0.9

    def test_scheduling_overhead_grows_with_blocks(self):
        cycles = np.ones(50_000)
        r1 = hardware_schedule(
            cycles, LaunchConfig(num_blocks=1, threads_per_block=32), V100
        )
        assert r1.overhead_cycles > 0
        assert r1.policy == "hardware"


class TestStaticSchedule:
    def test_static_never_beats_dynamic_on_skew(self):
        rng = np.random.default_rng(4)
        cycles = rng.pareto(1.2, size=30_000) * 100 + 5
        launch = LaunchConfig(num_blocks=1, threads_per_block=512)
        dyn = hardware_schedule(cycles, launch, V100)
        stat = static_schedule(cycles, launch, V100)
        assert stat.makespan_cycles >= dyn.makespan_cycles * 0.8

    def test_uniform_work_static_is_fine(self):
        # with uniform work static assignment loses nothing and skips the
        # per-block scheduling overhead entirely
        cycles = np.full(30_000, 10.0)
        launch = LaunchConfig(num_blocks=1, threads_per_block=128)
        dyn = hardware_schedule(cycles, launch, V100)
        stat = static_schedule(cycles, launch, V100)
        assert stat.makespan_cycles <= dyn.makespan_cycles
        assert stat.overhead_cycles == 0.0

    def test_empty(self):
        launch = LaunchConfig(num_blocks=1, threads_per_block=128)
        assert static_schedule(np.array([]), launch, V100).makespan_cycles == 0.0


class TestSoftwarePool:
    def test_empty(self):
        r = software_pool_schedule(np.array([]), V100)
        assert r.makespan_cycles == 0.0

    def test_policy_label(self):
        r = software_pool_schedule(np.ones(100), V100, step=8)
        assert r.policy == "software"
        assert r.num_units == -(-100 // 8)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            software_pool_schedule(np.ones(10), V100, step=0)

    def test_resident_warps_scaling(self):
        cycles = np.ones(100_000) * 10
        slow = software_pool_schedule(cycles, V100, resident_warps=16)
        fast = software_pool_schedule(cycles, V100, resident_warps=5120)
        assert slow.makespan_cycles > 50 * fast.makespan_cycles

    def test_beats_hardware_on_many_small_blocks(self):
        # huge vertex count, uniform small work: hardware pays per-block
        # scheduling; the pool pays one atomic per chunk
        cycles = np.full(200_000, 5.0)
        hw, _ = _hw(cycles)
        sw = software_pool_schedule(cycles, V100, step=16)
        assert sw.makespan_cycles < hw.makespan_cycles


def _hw(cycles, wpb=4):
    launch = LaunchConfig(
        num_blocks=max(1, -(-len(cycles) // wpb)), threads_per_block=wpb * 32
    )
    return hardware_schedule(cycles, launch, V100), launch


@given(
    n=st.integers(1, 400),
    workers=st.integers(1, 64),
    seed=st.integers(0, 10),
)
@settings(max_examples=40, deadline=None)
def test_greedy_makespan_bounds_property(n, workers, seed):
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.1, 50.0, size=n)
    span = greedy_makespan(costs, workers, exact=True)
    assert span >= max(costs.max(), costs.sum() / workers) - 1e-9
    assert span <= costs.sum() / workers + costs.max() + 1e-9


# ----------------------------------------------------------------------
# the exact path against the heap it replaced
# ----------------------------------------------------------------------
def _heap_makespan(costs, workers):
    """The oracle: greedy list scheduling one task per heap step."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0:
        return 0.0
    if costs.size <= workers:
        return float(costs.max())
    heap = sorted(float(c) for c in costs[:workers])
    heapq.heapify(heap)
    for c in costs[workers:]:
        t = heapq.heappop(heap)
        heapq.heappush(heap, t + float(c))
    return float(max(heap))


def _draw_costs(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "float":
        return rng.exponential(50.0, n) * rng.uniform(0.5, 2.0)
    if kind == "ties":  # integer-valued, a handful of distinct values
        return rng.integers(0, 6, n).astype(np.float64)
    if kind == "zeros":  # runs of free tasks between real ones
        return np.where(rng.random(n) < 0.6, 0.0, rng.uniform(1.0, 20.0, n))
    return rng.pareto(1.1, n) * 10.0  # heavy tail


@given(
    kind=st.sampled_from(["float", "ties", "zeros", "pareto"]),
    n=st.integers(1, 3000),
    workers=st.integers(1, 400),
    overhead=st.sampled_from([0.0, 0.5, 24.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None)
def test_exact_makespan_equals_heap(kind, n, workers, overhead, seed):
    costs = _draw_costs(kind, n, seed)
    span = greedy_makespan(
        costs, workers, per_task_overhead=overhead, exact=True
    )
    assert span == _heap_makespan(costs + overhead, workers)
    assert place(costs, workers, per_task_overhead=overhead).end.max() == span


def _adversarial(workers, n=6000):
    rng = np.random.default_rng(workers)
    base = rng.exponential(30.0, n)
    return {
        # a few slots far ahead of the rest, then a flood of tiny tasks:
        # every chunk collapses to one task
        "staggered-then-tiny": np.concatenate(
            [np.arange(workers) * 1000.0, np.full(n, 1.0)]
        ),
        "ascending": np.sort(base),
        "descending": np.sort(base)[::-1].copy(),
        "descending-geometric": np.geomspace(1e9, 1.0, n),
        "huge-first": np.concatenate([[1e9], rng.uniform(1.0, 10.0, n)]),
        "pareto": rng.pareto(1.1, n) * 10.0 + 1.0,
    }


@pytest.mark.parametrize("workers", [1, 2, 3, 127, 128, 129, 160, 400, 1280])
def test_exact_makespan_equals_heap_on_adversarial_families(workers):
    for name, costs in _adversarial(workers).items():
        span = greedy_makespan(costs, workers, exact=True)
        assert span == _heap_makespan(costs, workers), name
        assert place(costs, workers).end.max() == span, name


def test_block_costs_are_the_slowest_warp():
    rng = np.random.default_rng(5)
    # more blocks than slots, and a short last block
    cycles = rng.uniform(1.0, 100.0, 20_001)
    launch = LaunchConfig(num_blocks=1, threads_per_block=4 * 32)
    slots = V100.num_sms * envelope_occupancy(
        V100,
        threads_per_block=launch.threads_per_block,
        regs_per_thread=launch.regs_per_thread,
    ).blocks_per_sm
    blocks = np.pad(cycles, (0, 3)).reshape(-1, 4).max(axis=1)
    expected = _heap_makespan(blocks + V100.block_schedule_cycles, slots)
    assert hardware_schedule(cycles, launch, V100).makespan_cycles == expected
    per_slot = np.pad(blocks, (0, (-blocks.size) % slots)).reshape(-1, slots)
    assert static_schedule(cycles, launch, V100).makespan_cycles == float(
        per_slot.sum(axis=0).max()
    )
