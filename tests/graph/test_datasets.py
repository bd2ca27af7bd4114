"""Table 4 dataset registry: completeness, scaling semantics, determinism."""

import numpy as np
import pytest

from repro.graph import (
    DATASET_ORDER,
    DATASETS,
    FIG8_SEVEN,
    LARGE_FOUR,
    default_scale,
    from_edge_list,
    load_dataset,
)
from repro.graph import datasets, generators


class TestRegistry:
    def test_eleven_datasets(self):
        assert len(DATASETS) == 11
        assert DATASET_ORDER == [
            "CS", "CR", "PD", "OA", "PI", "DD", "OH", "CL", "ON", "RD", "OT",
        ]

    def test_table4_numbers(self):
        rd = DATASETS["RD"]
        assert rd.num_vertices == 232_000
        assert rd.num_edges == 114_000_000
        assert rd.avg_degree == pytest.approx(491.4, rel=0.01)
        assert DATASETS["CS"].num_vertices == 3_300
        assert DATASETS["OT"].num_edges == 123_700_000

    def test_large_four_subset(self):
        assert LARGE_FOUR == ["CL", "ON", "RD", "OT"]
        for a in LARGE_FOUR:
            assert DATASETS[a].num_edges > 20_000_000

    def test_fig8_seven_fit_gnnadvisor(self):
        for a in FIG8_SEVEN:
            assert DATASETS[a].num_edges <= 20_000_000

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("XX")


class TestScaling:
    def test_small_datasets_full_size(self):
        ds = load_dataset("CR")
        assert ds.scale == 1.0
        assert ds.graph.num_vertices == DATASETS["CR"].num_vertices

    def test_default_scale_caps_edges(self):
        for a in LARGE_FOUR:
            s = default_scale(DATASETS[a], max_edges=2_000_000)
            assert DATASETS[a].num_edges * s <= 2_000_000

    def test_avg_degree_preserved_under_scaling(self):
        ds = load_dataset("RD", max_edges=500_000)
        assert ds.graph.avg_degree == pytest.approx(
            DATASETS["RD"].avg_degree, rel=0.05
        )

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="scale"):
            load_dataset("CR", scale=1.5)
        with pytest.raises(ValueError, match="scale"):
            load_dataset("CR", scale=0.0)

    def test_full_stats_attached(self):
        ds = load_dataset("OT", max_edges=500_000)
        assert ds.full_num_vertices == 2_400_000
        assert ds.full_avg_degree == pytest.approx(51.5, rel=0.02)
        assert ds.abbr == "OT"

    def test_deterministic(self):
        a = load_dataset("PI", max_edges=200_000)
        b = load_dataset("PI", max_edges=200_000)
        assert np.array_equal(a.graph.indices, b.graph.indices)

    def test_hub_cap_applied(self):
        ds = load_dataset("RD", max_edges=500_000)
        # capped at the real Reddit max degree (×1.5 statistical headroom)
        assert ds.graph.in_degrees.max() <= 21_657 * 1.5

    def test_family_shapes(self):
        oh = load_dataset("OH", max_edges=2_000_000)  # uniform
        rd = load_dataset("RD", max_edges=500_000)  # power law
        cv_oh = oh.graph.in_degrees.std() / max(oh.graph.avg_degree, 1e-9)
        cv_rd = rd.graph.in_degrees.std() / max(rd.graph.avg_degree, 1e-9)
        assert cv_rd > 2 * cv_oh

    def test_oa_regular_ish(self):
        oa = load_dataset("OA")
        cv = oa.graph.in_degrees.std() / oa.graph.avg_degree
        assert cv < 1.0  # narrow distribution

    @pytest.mark.parametrize("abbr", DATASET_ORDER)
    def test_one_csr_per_load(self, abbr, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args[2])
            return from_edge_list(*args, **kwargs)

        for module in (datasets, generators):
            monkeypatch.setattr(module, "from_edge_list", counting)
        graph = load_dataset(abbr, max_edges=60_000).graph
        assert built == [graph.num_vertices]
