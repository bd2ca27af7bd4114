"""Distributed convolution: correctness vs single device, accounting."""

import numpy as np
import pytest

from repro.graph import erdos_renyi, partition_kway
from repro.models import build_conv, reference_aggregate
from repro.models.convspec import ConvWorkload
from repro.multigpu import distribute_conv


@pytest.fixture
def setup(rng):
    g = erdos_renyi(200, 1400, seed=2)
    X = rng.standard_normal((200, 16), dtype=np.float32)
    return g, X


class TestCorrectness:
    def test_unweighted_sum_matches(self, setup):
        g, X = setup
        wl = ConvWorkload(graph=g, X=X, reduce="sum")
        expected = reference_aggregate(wl)
        for k in (1, 2, 4):
            res = distribute_conv(g, X, k)
            np.testing.assert_allclose(res.output, expected, rtol=1e-3, atol=1e-4)

    def test_gcn_norm_factorized(self, setup):
        g, X = setup
        expected = reference_aggregate(build_conv("gcn", g, X))
        deg = g.in_degrees.astype(np.float64) + 1.0
        inv = (1.0 / np.sqrt(deg)).astype(np.float32)
        res = distribute_conv(g, X, 3, src_scale=inv, dst_scale=inv)
        # add the (local) self-loop term
        out = res.output + X / deg[:, None].astype(np.float32)
        np.testing.assert_allclose(out, expected, rtol=1e-3, atol=1e-4)

    def test_custom_partition(self, setup):
        g, X = setup
        part = partition_kway(g, 2, seed=9)
        wl = ConvWorkload(graph=g, X=X, reduce="sum")
        res = distribute_conv(g, X, 2, partition=part)
        np.testing.assert_allclose(
            res.output, reference_aggregate(wl), rtol=1e-3, atol=1e-4
        )

    def test_partition_k_checked(self, setup):
        g, X = setup
        part = partition_kway(g, 2)
        with pytest.raises(ValueError, match="partition.k"):
            distribute_conv(g, X, 3, partition=part)

    def test_x_shape_checked(self, setup):
        g, _ = setup
        with pytest.raises(ValueError, match="rows"):
            distribute_conv(g, np.ones((5, 4), np.float32), 2)


class TestAccounting:
    def test_shards_cover_vertices(self, setup):
        g, X = setup
        res = distribute_conv(g, X, 4)
        covered = np.concatenate([s.local_vertices for s in res.shards])
        assert np.array_equal(np.sort(covered), np.arange(g.num_vertices))

    def test_halo_bytes_match_shards(self, setup):
        g, X = setup
        res = distribute_conv(g, X, 4)
        expected = sum(s.num_halo for s in res.shards) * 16 * 4
        assert res.halo_bytes == expected
        assert res.exchange_seconds == pytest.approx(res.halo_bytes / 50e9)

    def test_single_device_no_halo(self, setup):
        g, X = setup
        res = distribute_conv(g, X, 1)
        assert res.halo_bytes == 0
        assert res.num_devices == 1
        assert res.load_balance == pytest.approx(1.0)

    def test_critical_path_is_max(self, setup):
        g, X = setup
        res = distribute_conv(g, X, 4)
        assert res.conv_seconds == max(s.gpu_seconds for s in res.shards)
        assert res.total_seconds >= res.conv_seconds

    def test_more_devices_less_local_work(self, setup):
        g, X = setup
        one = distribute_conv(g, X, 1)
        four = distribute_conv(g, X, 4)
        assert max(s.local_graph.num_edges for s in four.shards) < (
            one.shards[0].local_graph.num_edges
        )


class TestHaloExchange:
    """ISSUE 2 satellite: pin the halo-exchange accounting contract."""

    @pytest.mark.parametrize("feat_dim", [8, 16, 48])
    def test_one_feature_row_per_halo_vertex(self, rng, feat_dim):
        # exchange volume is exactly one float32 feature row per halo
        # vertex per device — nothing per-edge, nothing double-counted
        g = erdos_renyi(200, 1400, seed=2)
        X = rng.standard_normal((200, feat_dim), dtype=np.float32)
        res = distribute_conv(g, X, 3)
        assert res.halo_bytes == sum(s.num_halo for s in res.shards) * feat_dim * 4

    def test_halo_sets_match_partition_cut(self, setup):
        # recompute each device's halo set independently from the
        # partition assignment and the global edge list
        g, X = setup
        part = partition_kway(g, 4, seed=3)
        res = distribute_conv(g, X, 4, partition=part)
        src, dst = g.edge_list()
        for shard in res.shards:
            inbound = src[part.assignment[dst] == shard.device]
            expected = np.unique(
                inbound[part.assignment[inbound] != shard.device]
            )
            np.testing.assert_array_equal(shard.halo_vertices, expected)
        expected_bytes = sum(
            np.unique(
                src[
                    (part.assignment[dst] == dev)
                    & (part.assignment[src] != dev)
                ]
            ).size
            for dev in range(4)
        ) * X.shape[1] * 4
        assert res.halo_bytes == expected_bytes

    def test_halo_disjoint_from_local(self, setup):
        g, X = setup
        res = distribute_conv(g, X, 4)
        for shard in res.shards:
            assert not np.intersect1d(
                shard.halo_vertices, shard.local_vertices
            ).size

    def test_k1_equals_single_gpu_kernel(self, setup):
        # one device: same output and same device time as running the
        # TLPGNN kernel directly on the full graph
        from repro.gpusim.config import V100
        from repro.kernels.tlpgnn import TLPGNNKernel

        g, X = setup
        res = distribute_conv(g, X, 1)
        wl = ConvWorkload(graph=g, X=X, reduce="sum")
        direct = TLPGNNKernel().execute(wl, V100)
        np.testing.assert_allclose(
            res.output, reference_aggregate(wl), rtol=1e-5, atol=1e-6
        )
        assert res.conv_seconds == direct.timing.gpu_seconds
        assert res.total_seconds == res.conv_seconds  # no exchange term
