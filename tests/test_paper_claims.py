"""End-to-end checks of the paper's headline claims on reduced workloads.

These assert the *shape* of the evaluation: who wins, directionally by how
much, and where the paper's profiling observations show up in the model.
Every bound lives in ``repro.bench.validate.CLAIMS``; each test asserts the
verdict of the claims that hold its bound, judged on the session's one
regeneration at 150k edges (the ``claim_verdicts`` fixture).
"""

import pytest


def _assert_hold(verdicts, *claim_ids):
    failed = {c: verdicts[c].detail for c in claim_ids if not verdicts[c].passed}
    assert not failed


def _holds(*claim_ids):
    """A test method asserting that the named claims hold."""
    return lambda self, claim_verdicts: _assert_hold(claim_verdicts, *claim_ids)


class TestObservationI:
    """Atomic writes drastically lower performance (Table 1)."""

    test_pull_fastest = _holds("obs1-atomics")
    test_pull_speedup_in_paper_range = _holds("obs1-atomics")
    test_pull_has_no_atomic_traffic = _holds("obs1-atomics")
    test_pull_highest_sm_utilization = _holds("obs1-atomics")
    test_pull_lowest_stall = _holds("obs1-atomics")


class TestObservationII:
    """Coalesced access: warp-mapping crushes thread-mapping (Table 2)."""

    test_half_warp_much_faster = _holds("obs2-coalescing")
    test_sector_per_request_gap = _holds("obs2-coalescing")
    test_stall_gap = _holds("obs2-coalescing")


class TestObservationIII:
    """Fewer kernels win (Table 3): one < three < DGL-18 for GAT."""

    test_kernel_counts = _holds("obs3-fusion")
    test_runtime_ordering = _holds("obs3-fusion")
    test_launch_overhead_ordering = _holds("obs3-fusion")
    test_memory_usage_ordering = _holds("obs3-fusion")
    test_traffic_ordering = _holds("obs3-fusion")


class TestMainComparison:
    """Table 5 shape: TLPGNN beats every baseline on representative cells."""

    @pytest.mark.parametrize("model", ["gcn", "gat"])
    @pytest.mark.parametrize("abbr", ["CR", "PI", "RD"])
    def test_tlpgnn_wins(self, model, abbr, claim_verdicts):
        _assert_hold(claim_verdicts, "table5-wins")

    test_tlpgnn_beats_gnnadvisor = _holds("table5-wins")


class TestAblation:
    """Figure 10 shape: each cumulative technique helps."""

    test_tlp_helps = _holds("fig10-ablation")
    test_cache_helps = _holds("fig10-ablation")
    test_fusion_helps_gat = _holds("fig10-ablation")
    test_total_speedup_substantial = _holds("fig10-ablation")


class TestScalability:
    test_thread_count_scaling_near_linear = _holds("fig11-thread-scaling")
    test_feature_size_scaling_linearish = _holds(
        "fig12-feature-scaling", "fig12-size16"
    )
