"""Counter-model invariants — the quantitative claims behind Obs I-III."""

import numpy as np
import pytest

from repro.gpusim import V100
from repro.kernels import (
    EdgeCentricKernel,
    NeighborGroupKernel,
    PullThreadKernel,
    PushKernel,
    TLPGNNKernel,
    build_groups,
    feature_row_sectors,
    feature_rounds,
    three_kernel_gat_stats,
)
from repro.kernels.neighbor_group import group_owners
from repro.models import reference_aggregate

from ..conftest import make_workload


class TestHelpers:
    def test_feature_row_sectors(self):
        assert feature_row_sectors(8) == 1
        assert feature_row_sectors(32) == 4
        assert feature_row_sectors(33) == 5
        with pytest.raises(ValueError):
            feature_row_sectors(0)

    def test_feature_rounds(self):
        assert feature_rounds(32) == 1
        assert feature_rounds(33) == 2
        assert feature_rounds(16, lanes=16) == 1
        with pytest.raises(ValueError):
            feature_rounds(8, lanes=0)

    def test_build_groups(self):
        sizes = build_groups(np.array([0, 1, 5, 8]), 4)
        assert sizes.tolist() == [1, 4, 1, 4, 4]
        owners = group_owners(np.array([0, 1, 5, 8]), 4)
        assert owners.tolist() == [1, 2, 2, 3, 3]

    def test_build_groups_validates(self):
        with pytest.raises(ValueError):
            build_groups(np.array([1]), 0)


class TestAtomicFreedom:
    """Observation I: pull-style kernels issue zero atomics; scatter-style
    kernels issue one atomic op per edge per feature element."""

    def test_tlpgnn_atomic_free(self, skewed_graph):
        wl = make_workload(skewed_graph, "gcn", 16)
        stats, _ = TLPGNNKernel().analyze(wl)
        assert stats.atomic_ops == 0
        assert stats.atomic_bytes == 0

    def test_pull_thread_atomic_free(self, skewed_graph):
        wl = make_workload(skewed_graph, "gcn", 16)
        stats, _ = PullThreadKernel().analyze(wl)
        assert stats.atomic_ops == 0

    @pytest.mark.parametrize("kernel", [PushKernel(), EdgeCentricKernel()])
    def test_scatter_ops_exact(self, skewed_graph, kernel):
        wl = make_workload(skewed_graph, "gin", 16)
        stats, _ = kernel.analyze(wl)
        assert stats.atomic_ops == skewed_graph.num_edges * 16
        assert stats.atomic_bytes > 0
        assert 0.0 <= stats.atomic_collision_rate <= 1.0

    def test_neighbor_group_ops_scale_with_groups(self, skewed_graph):
        wl = make_workload(skewed_graph, "gin", 16)
        k = NeighborGroupKernel(group_size=4)
        stats, _ = k.analyze(wl)
        n_groups = build_groups(skewed_graph.in_degrees, 4).size
        assert stats.atomic_ops == n_groups * 16

    def test_larger_groups_fewer_atomics(self, skewed_graph):
        wl = make_workload(skewed_graph, "gin", 16)
        small, _ = NeighborGroupKernel(group_size=2).analyze(wl)
        large, _ = NeighborGroupKernel(group_size=16).analyze(wl)
        assert large.atomic_ops < small.atomic_ops


class TestCoalescing:
    """Observation II: warp-per-vertex keeps sector/request near the
    fully-coalesced minimum; thread-per-vertex explodes it."""

    def test_sector_per_request_ordering(self, small_random):
        # uniform degrees like the paper's ovcar_8h: most lanes stay active,
        # so every scattered request touches many sectors
        wl = make_workload(small_random, "gcn", 128)
        warp, _ = TLPGNNKernel(group_size=16, assignment="hardware").analyze(wl)
        thread, _ = PullThreadKernel().analyze(wl)
        assert thread.sectors_per_request > 3 * warp.sectors_per_request
        assert warp.sectors_per_request < 4.5

    def test_thread_kernel_moves_more_dram(self, skewed_graph):
        wl = make_workload(skewed_graph, "gcn", 128)
        warp, _ = TLPGNNKernel(assignment="hardware").analyze(wl)
        thread, _ = PullThreadKernel().analyze(wl)
        assert thread.load_bytes > warp.load_bytes

    def test_feature_dim_scales_traffic(self, small_random):
        small = make_workload(small_random, "gin", 16)
        big = make_workload(small_random, "gin", 128)
        s_stats, _ = TLPGNNKernel(assignment="hardware").analyze(small)
        b_stats, _ = TLPGNNKernel(assignment="hardware").analyze(big)
        ratio = b_stats.load_bytes / s_stats.load_bytes
        assert 3.0 < ratio < 9.0  # ~8x rows + fixed index traffic


class TestRegisterCaching:
    def test_cache_cuts_requests_and_traffic(self, skewed_graph):
        wl = make_workload(skewed_graph, "gcn", 64)
        on, _ = TLPGNNKernel(assignment="hardware").analyze(wl)
        off, _ = TLPGNNKernel(
            assignment="hardware", register_cache=False
        ).analyze(wl)
        assert off.load_requests > on.load_requests
        assert off.total_bytes > on.total_bytes
        assert off.store_requests > on.store_requests

    def test_cache_speeds_up(self, skewed_graph):
        wl = make_workload(skewed_graph, "gcn", 64)
        on = TLPGNNKernel(assignment="hardware").execute(wl)
        off = TLPGNNKernel(assignment="hardware", register_cache=False).execute(wl)
        assert off.timing.gpu_seconds > on.timing.gpu_seconds


class TestFusion:
    """Observation III: the fused GAT kernel materializes nothing and moves
    less memory than the 3-kernel pipeline."""

    def test_fused_no_workspace(self, skewed_graph):
        wl = make_workload(skewed_graph, "gat", 32)
        stats, _ = TLPGNNKernel().analyze(wl)
        assert stats.workspace_bytes == 0

    def test_three_kernel_materializes_edges(self, skewed_graph):
        wl = make_workload(skewed_graph, "gat", 32)
        pipe, _ = three_kernel_gat_stats(wl)
        assert pipe.num_kernels == 3
        assert pipe.total_workspace_bytes >= 2 * 4 * skewed_graph.num_edges

    def test_fused_less_traffic(self, skewed_graph):
        wl = make_workload(skewed_graph, "gat", 32)
        fused, _ = TLPGNNKernel().analyze(wl)
        pipe, _ = three_kernel_gat_stats(wl)
        assert fused.total_bytes < pipe.total_bytes


class TestScheduling:
    def test_hybrid_hint_switches_policy(self, small_random):
        wl = make_workload(small_random, "gcn", 16)
        hw = TLPGNNKernel(assignment="hybrid")  # small graph -> hardware
        _, sched_hw = hw.analyze(wl)
        assert sched_hw.policy == "hardware"
        sw = TLPGNNKernel(
            assignment="hybrid", hint_num_vertices=2_000_000, hint_avg_degree=2.0
        )
        _, sched_sw = sw.analyze(wl)
        assert sched_sw.policy == "software"

    def test_degree_hint_switches_policy(self, small_random):
        wl = make_workload(small_random, "gcn", 16)
        k = TLPGNNKernel(assignment="hybrid", hint_avg_degree=100.0)
        _, sched = k.analyze(wl)
        assert sched.policy == "software"

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            TLPGNNKernel(group_size=12)
        with pytest.raises(ValueError):
            TLPGNNKernel(assignment="magic")

    def test_edge_centric_balanced_units(self, skewed_graph):
        wl = make_workload(skewed_graph, "gin", 16)
        stats, _ = EdgeCentricKernel(edges_per_warp=32).analyze(wl)
        cv = stats.warp_cycles.std() / stats.warp_cycles.mean()
        t_stats, _ = TLPGNNKernel(assignment="hardware").analyze(wl)
        cv_v = t_stats.warp_cycles.std() / t_stats.warp_cycles.mean()
        assert cv < cv_v  # edge chunks are balanced, vertices are not


class TestEdgeCases:
    def test_empty_graph(self):
        from repro.graph import empty

        wl = make_workload(empty(10), "gin", 16)
        stats, sched = TLPGNNKernel(assignment="hardware").analyze(wl)
        assert stats.atomic_ops == 0
        out = reference_aggregate(wl)
        assert np.allclose(out, wl.X)  # GIN self term only

    def test_single_edge(self):
        from repro.graph import from_edge_list

        g = from_edge_list([0], [1], 2)
        wl = make_workload(g, "gcn", 8)
        stats, _ = TLPGNNKernel(assignment="hardware").analyze(wl)
        stats.validate()
        assert stats.load_requests > 0
