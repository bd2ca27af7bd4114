"""The paper's design-space arguments (§4.2-4.3), quantified.

Level 1: thread-per-vertex vs warp-per-vertex vs CTA-per-vertex — the warp
mapping must win.  Level 2: edge parallelism vs feature parallelism within
the warp — feature parallelism must win.
"""

import pytest

from repro.gpusim import MicroSim
from repro.kernels import (
    EdgeParallelWarpKernel,
    PullCTAKernel,
    PullThreadKernel,
    TLPGNNKernel,
)

from ..conftest import assert_plan_is_reference, make_workload


class TestCorrectness:
    @pytest.mark.parametrize(
        "kernel",
        [
            PullCTAKernel(),
            PullCTAKernel(warps_per_block=1),
            PullCTAKernel(warps_per_block=8),
            EdgeParallelWarpKernel(),
        ],
        ids=lambda k: k.name,
    )
    @pytest.mark.parametrize("model", ["gcn", "gin", "sage"])
    def test_matches_reference(self, small_random, kernel, model):
        assert_plan_is_reference(kernel, make_workload(small_random, model, 16))

    def test_cta_validates(self):
        with pytest.raises(ValueError):
            PullCTAKernel(warps_per_block=0)

    def test_edge_parallel_skips_attention(self, small_random):
        wl = make_workload(small_random, "gat", 16)
        assert not EdgeParallelWarpKernel().supports(wl)


class TestTraceAgreement:
    def test_cta_exact(self, small_random):
        wl = make_workload(small_random, "gcn", 16)
        for W in (1, 4, 8):
            k = PullCTAKernel(warps_per_block=W)
            sim = MicroSim()
            k.trace(wl, sim)
            stats, _ = k.analyze(wl)
            assert sim.load_requests == stats.load_requests
            assert sim.load_sectors == stats.l1_load_sectors
            assert sim.store_requests == stats.store_requests

    def test_edge_parallel_requests_exact(self, small_random):
        wl = make_workload(small_random, "gcn", 16)
        k = EdgeParallelWarpKernel()
        sim = MicroSim()
        k.trace(wl, sim)
        stats, _ = k.analyze(wl)
        assert sim.load_requests == stats.load_requests
        # scattered-row sectors: analyze upper-bounds incidental sharing
        assert sim.load_sectors <= stats.l1_load_sectors <= 1.2 * sim.load_sectors


class TestLevel1Choice:
    """§4.2: warp-per-vertex beats thread- and CTA-per-vertex."""

    @pytest.fixture(scope="class")
    def timings(self):
        from repro.bench import BenchConfig, get_dataset, make_features
        from repro.models import build_conv

        cfg = BenchConfig(feat_dim=32, max_edges=150_000, seed=7)
        ds = get_dataset("OH", cfg)
        X = make_features(ds.graph.num_vertices, 32, seed=7)
        wl = build_conv("gcn", ds.graph, X)
        spec = cfg.spec_for(ds)
        return {
            "thread": PullThreadKernel().execute(wl, spec),
            "warp": TLPGNNKernel(assignment="hardware").execute(wl, spec),
            "cta": PullCTAKernel(warps_per_block=4).execute(wl, spec),
        }

    def test_warp_beats_thread(self, timings):
        assert timings["warp"].timing.gpu_seconds < timings["thread"].timing.gpu_seconds

    def test_warp_beats_cta(self, timings):
        assert timings["warp"].timing.gpu_seconds < timings["cta"].timing.gpu_seconds

    def test_cta_pays_sync_instructions(self, timings):
        # block-wide barriers + smem staging issue extra instructions
        assert timings["cta"].stats.instructions > timings["warp"].stats.instructions

    def test_thread_uncoalesced(self, timings):
        assert (
            timings["thread"].stats.sectors_per_request
            > 2 * timings["warp"].stats.sectors_per_request
        )


class TestLevel2Choice:
    """§4.3: feature parallelism beats edge parallelism within the warp."""

    @pytest.fixture(scope="class")
    def timings(self):
        from repro.bench import BenchConfig, get_dataset, make_features
        from repro.models import build_conv

        cfg = BenchConfig(feat_dim=32, max_edges=150_000, seed=7)
        ds = get_dataset("PI", cfg)
        X = make_features(ds.graph.num_vertices, 32, seed=7)
        wl = build_conv("gcn", ds.graph, X)
        spec = cfg.spec_for(ds)
        return {
            "feature": TLPGNNKernel(assignment="hardware").execute(wl, spec),
            "edge": EdgeParallelWarpKernel().execute(wl, spec),
        }

    def test_feature_parallel_faster(self, timings):
        assert (
            timings["feature"].timing.gpu_seconds
            < timings["edge"].timing.gpu_seconds
        )

    def test_feature_parallel_coalesced(self, timings):
        assert (
            timings["feature"].stats.sectors_per_request
            < timings["edge"].stats.sectors_per_request
        )

    def test_feature_parallel_less_dram(self, timings):
        assert timings["feature"].stats.load_bytes < timings["edge"].stats.load_bytes
