"""Hybrid workload balancing: Algorithm 1 semantics and the heuristic."""

import numpy as np
import pytest

from repro.balance import (
    DEGREE_THRESHOLD,
    VERTEX_THRESHOLD,
    choose_assignment,
    hardware_assignment,
    hybrid_assignment,
    software_assignment,
)
from repro.gpusim import V100, place, software_pool_schedule


def _pool(costs, warps, step, fetch_cost=0.0):
    """Algorithm 1 on the list scheduler: chunk ``c`` holds vertices
    ``[c*step, (c+1)*step)``, and the warp whose atomicAdd lands first
    pulls the next chunk, paying ``fetch_cost`` per pull."""
    n_chunks = -(-costs.size // step)
    padded = np.pad(costs, (0, n_chunks * step - costs.size))
    chunks = place(
        padded.reshape(n_chunks, step).sum(axis=1), warps,
        per_task_overhead=fetch_cost,
    )
    return chunks, np.repeat(chunks.worker, step)[: costs.size]


class TestAlgorithm1:
    """The paper's Algorithm 1 as placements of the one list scheduler."""

    def test_every_vertex_processed_once(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(1, 10, size=1000)
        chunks, owner = _pool(costs, warps=32, step=8)
        assert chunks.worker.size == 125  # each chunk placed once
        assert owner.size == costs.size
        assert np.all((owner >= 0) & (owner < 32))

    def test_chunks_are_consecutive(self):
        costs = np.ones(100)
        chunks, owner = _pool(costs, warps=4, step=10)
        # each chunk of 10 consecutive vertices has a single owner, and the
        # counter hands chunks out in vertex order
        for c in range(0, 100, 10):
            assert len(set(owner[c : c + 10].tolist())) == 1
        assert np.all(np.diff(chunks.start) >= 0.0)

    def test_total_work_conserved(self):
        rng = np.random.default_rng(1)
        costs = rng.uniform(1, 5, size=777)
        chunks, _ = _pool(costs, warps=16, step=8)
        assert (chunks.end - chunks.start).sum() == pytest.approx(costs.sum())

    def test_pulls_counted(self):
        costs = np.ones(64)
        chunks, _ = _pool(costs, warps=4, step=8)
        assert np.bincount(chunks.worker, minlength=4).tolist() == [2, 2, 2, 2]

    def test_fetch_cost_charged_per_pull(self):
        costs = np.ones(64)
        a, _ = _pool(costs, warps=4, step=8)
        b, _ = _pool(costs, warps=4, step=8, fetch_cost=100.0)
        assert (b.end - b.start).sum() == pytest.approx(
            (a.end - a.start).sum() + 100.0 * 8
        )

    def test_dynamic_beats_static_split_on_skew(self):
        rng = np.random.default_rng(2)
        costs = rng.pareto(1.3, size=4096) * 100 + 1
        chunks, _ = _pool(costs, warps=64, step=4)
        static = costs.reshape(64, -1).sum(axis=1).max()
        assert chunks.end.max() <= static

    def test_validations(self):
        with pytest.raises(ValueError, match="workers"):
            place(np.ones(4), 0)
        with pytest.raises(ValueError, match="step"):
            software_pool_schedule(np.ones(4), V100, step=0)

    def test_pool_schedule_tracks_simulation(self):
        """The pool schedule's makespan is the placements' latest end."""
        rng = np.random.default_rng(3)
        costs = rng.uniform(1, 50, size=5000)
        fetch = V100.cycles_per_atomic + V100.cycles_per_request
        for warps in (64, 256):
            sched = software_pool_schedule(
                costs, V100, step=8, resident_warps=warps
            )
            chunks, _ = _pool(costs, warps=warps, step=8, fetch_cost=fetch)
            assert sched.makespan_cycles == chunks.end.max()


class TestHeuristic:
    def test_paper_thresholds(self):
        assert VERTEX_THRESHOLD == 1_000_000
        assert DEGREE_THRESHOLD == 50.0

    def test_choose_small_sparse_hardware(self):
        assert choose_assignment(10_000, 5.0) == "hardware"

    def test_choose_many_vertices_software(self):
        assert choose_assignment(1_000_001, 2.0) == "software"

    def test_choose_dense_software(self):
        assert choose_assignment(100, 51.0) == "software"

    def test_boundary_exclusive(self):
        assert choose_assignment(1_000_000, 50.0) == "hardware"

    def test_custom_thresholds(self):
        assert choose_assignment(10, 5.0, degree_threshold=4.0) == "software"


class TestAssignments:
    def test_hybrid_routes_to_software(self):
        cycles = np.ones(100)
        _sched, _launch, policy = hybrid_assignment(
            cycles, V100, num_vertices=2_000_000, avg_degree=1.0
        )
        assert policy == "software"

    def test_hybrid_routes_to_hardware(self):
        cycles = np.ones(100)
        _sched, _launch, policy = hybrid_assignment(
            cycles, V100, num_vertices=100, avg_degree=1.0
        )
        assert policy == "hardware"

    def test_hardware_launch_shape(self):
        cycles = np.ones(1000)
        sched, launch = hardware_assignment(cycles, V100, warps_per_block=8)
        assert launch.threads_per_block == 256
        assert launch.num_blocks == 125
        assert sched.policy == "hardware"

    def test_software_launch_resident_sized(self):
        cycles = np.ones(10_000)
        _sched, launch = software_assignment(cycles, V100, warps_per_block=8)
        assert launch.num_warps() == V100.max_resident_warps

    def test_software_wins_on_heavy_degree(self):
        """The paper's observation: heavy per-vertex work amortizes the pool
        atomic, so software beats hardware."""
        rng = np.random.default_rng(5)
        heavy = rng.uniform(500, 3000, size=200_000)
        hw, _ = hardware_assignment(heavy, V100, warps_per_block=4)
        sw, _ = software_assignment(heavy, V100, step=8)
        assert sw.makespan_cycles < hw.makespan_cycles

    def test_software_wins_on_many_vertices(self):
        many = np.full(2_000_00, 20.0)
        hw, _ = hardware_assignment(many, V100, warps_per_block=4)
        sw, _ = software_assignment(many, V100, step=8)
        assert sw.makespan_cycles < hw.makespan_cycles
