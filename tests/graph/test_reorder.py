"""Degree-sort reordering: permutation validity and structural preservation."""

import numpy as np

from repro.graph import degree_sort


def _is_perm(p, n):
    return np.array_equal(np.sort(p), np.arange(n))


class TestDegreeSort:
    def test_permutation_valid(self, skewed_graph):
        r = degree_sort(skewed_graph)
        assert _is_perm(r.perm, skewed_graph.num_vertices)

    def test_descending_degrees(self, skewed_graph):
        r = degree_sort(skewed_graph)
        deg = r.graph.in_degrees
        assert np.all(np.diff(deg) <= 0)

    def test_ascending(self, skewed_graph):
        r = degree_sort(skewed_graph, descending=False)
        assert np.all(np.diff(r.graph.in_degrees) >= 0)

    def test_structure_preserved(self, skewed_graph):
        r = degree_sort(skewed_graph)
        assert r.graph.num_edges == skewed_graph.num_edges
        assert sorted(r.graph.in_degrees) == sorted(skewed_graph.in_degrees)

    def test_edges_relabelled_consistently(self, tiny_graph):
        r = degree_sort(tiny_graph)
        src, dst = tiny_graph.edge_list()
        psrc, pdst = r.graph.edge_list()
        orig = sorted(zip(r.perm[src].tolist(), r.perm[dst].tolist(), strict=True))
        assert orig == sorted(zip(psrc.tolist(), pdst.tolist(), strict=True))

