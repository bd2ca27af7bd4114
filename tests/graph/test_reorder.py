"""Vertex reordering: permutation validity and structural preservation."""

import numpy as np

from repro.graph import bfs_locality, degree_sort, identity_order


def _is_perm(p, n):
    return np.array_equal(np.sort(p), np.arange(n))


class TestIdentity:
    def test_identity_noop(self, small_random):
        r = identity_order(small_random)
        assert _is_perm(r.perm, small_random.num_vertices)
        assert np.array_equal(r.perm, np.arange(small_random.num_vertices))
        assert r.graph is small_random


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


class TestBFS:
    def test_permutation_valid(self, small_random):
        r = bfs_locality(small_random)
        assert _is_perm(r.perm, small_random.num_vertices)

    def test_structure_preserved(self, small_random):
        r = bfs_locality(small_random)
        assert r.graph.num_edges == small_random.num_edges
        assert sorted(r.graph.in_degrees) == sorted(small_random.in_degrees)

    def test_source_first(self, small_random):
        r = bfs_locality(small_random, source=5)
        assert r.perm[5] == 0

    def test_disconnected_vertices_covered(self, chain_graph):
        # a chain plus isolated vertices still yields a full permutation
        r = bfs_locality(chain_graph, source=0)
        assert _is_perm(r.perm, chain_graph.num_vertices)

    def test_neighbors_get_close_ids(self, chain_graph):
        # on a path graph BFS order is the path order: neighbours adjacent
        r = bfs_locality(chain_graph, source=0)
        src, dst = r.graph.edge_list()
        assert np.abs(src - dst).max() == 1
