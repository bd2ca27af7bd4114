"""Validate the analytical counter formulas against the micro-simulator.

The micro-simulator replays each kernel's access pattern address by address
on small graphs; ``analyze()`` must agree — exactly for the uniform-access
TLPGNN family, within tolerance for the scattered baselines (whose
analytical model upper-bounds sector counts by ignoring incidental
lane-address sharing).
"""

import pytest

from repro.gpusim import MicroSim
from repro.kernels import (
    EdgeCentricKernel,
    NeighborGroupKernel,
    PullThreadKernel,
    PushKernel,
    TLPGNNKernel,
)

from ..conftest import make_workload


def _run_both(kernel, wl):
    sim = MicroSim()
    kernel.trace(wl, sim)
    stats, _ = kernel.analyze(wl)
    return sim, stats


class TestTLPGNNExact:
    @pytest.mark.parametrize("model", ["gcn", "gin"])
    @pytest.mark.parametrize("feat", [8, 16, 32, 64])
    def test_requests_and_sectors_exact(self, small_random, model, feat):
        kernel = TLPGNNKernel(assignment="hardware")
        wl = make_workload(small_random, model, feat)
        sim, stats = _run_both(kernel, wl)
        assert sim.load_requests == stats.load_requests
        assert sim.store_requests == stats.store_requests
        assert sim.load_sectors == stats.l1_load_sectors
        assert sim.store_sectors == stats.l1_store_sectors
        assert sim.atomic_ops == stats.atomic_ops == 0

    def test_register_cache_off_exact(self, small_random):
        kernel = TLPGNNKernel(assignment="hardware", register_cache=False)
        wl = make_workload(small_random, "gin", 16)
        sim, stats = _run_both(kernel, wl)
        assert sim.load_requests == stats.load_requests
        assert sim.load_sectors == stats.l1_load_sectors
        assert sim.store_requests == stats.store_requests

    def test_half_warp_exact(self, small_random):
        kernel = TLPGNNKernel(group_size=16, assignment="hardware")
        wl = make_workload(small_random, "gcn", 32)
        sim, stats = _run_both(kernel, wl)
        assert sim.load_requests == stats.load_requests
        assert sim.load_sectors == stats.l1_load_sectors

    def test_gat_fused_requests_exact(self, small_random):
        """Attention re-read sectors are L1-discounted in analyze(), so only
        request counts are exact against the raw trace."""
        kernel = TLPGNNKernel(assignment="hardware")
        wl = make_workload(small_random, "gat", 16)
        sim, stats = _run_both(kernel, wl)
        assert sim.load_requests == stats.load_requests
        assert sim.store_requests == stats.store_requests
        # the trace counts every pass's sectors; analyze discounts re-reads
        assert stats.l1_load_sectors <= sim.load_sectors


class TestScatterTolerance:
    def test_push_counts(self, small_random):
        kernel = PushKernel()
        wl = make_workload(small_random, "gin", 16)
        sim, stats = _run_both(kernel, wl)
        assert sim.load_requests == stats.load_requests
        assert sim.atomic_requests == stats.atomic_requests
        assert sim.atomic_ops == stats.atomic_ops
        assert sim.load_sectors == stats.l1_load_sectors
        assert sim.atomic_sectors == stats.l1_atomic_sectors

    def test_edge_centric_counts(self, small_random):
        kernel = EdgeCentricKernel()
        wl = make_workload(small_random, "gin", 16)
        sim, stats = _run_both(kernel, wl)
        assert sim.atomic_ops == stats.atomic_ops
        assert sim.atomic_requests == stats.atomic_requests
        assert sim.load_sectors == stats.l1_load_sectors

    def test_neighbor_group_counts(self, small_random):
        kernel = NeighborGroupKernel(group_size=4)
        wl = make_workload(small_random, "gin", 16)
        sim, stats = _run_both(kernel, wl)
        assert sim.atomic_ops == stats.atomic_ops
        assert sim.load_requests == stats.load_requests
        assert sim.load_sectors == stats.l1_load_sectors

    def test_pull_thread_upper_bound(self, small_random):
        """Analytical sectors ignore incidental sharing between lanes, so
        they upper-bound the trace within 35%."""
        kernel = PullThreadKernel()
        wl = make_workload(small_random, "gcn", 16)
        sim, stats = _run_both(kernel, wl)
        assert stats.load_requests == sim.load_requests
        assert stats.l1_load_sectors >= sim.load_sectors
        assert stats.l1_load_sectors <= 1.35 * sim.load_sectors
        assert stats.l1_store_sectors == sim.store_sectors

    def test_pull_thread_divergence_recorded(self, skewed_graph):
        kernel = PullThreadKernel()
        wl = make_workload(skewed_graph, "gin", 8)
        sim = MicroSim()
        kernel.trace(wl, sim)
        stats, _ = kernel.analyze(wl)
        assert sim.divergent_lanes > 0
        assert stats.divergent_lanes == pytest.approx(
            sim.divergent_lanes, rel=0.25
        )
