"""CSRGraph container: construction, validation, views, conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, from_edge_list, load_dataset


def _lexsort_csr(src, dst, num_vertices, *, dedup=False):
    """The two-key lexsort construction ``from_edge_list`` replaced, kept
    as its oracle: ``(indptr, indices)``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if dedup and len(src):
        key = dst * num_vertices + src
        _, first = np.unique(key, return_index=True)
        src, dst = src[first], dst[first]
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(indptr, dst + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, src


def _lut_restriction(graph, targets):
    """The LUT-relabel restriction ``induced_in_edges`` replaced, over the
    lexsort oracle: ``(indptr, indices, vertices)``."""
    targets = np.unique(np.asarray(targets, dtype=np.int64))
    starts = graph.indptr[targets]
    counts = graph.indptr[targets + 1] - starts
    offsets = np.repeat(counts.cumsum() - counts, counts)
    flat = np.repeat(starts, counts) + (np.arange(int(counts.sum())) - offsets)
    src = graph.indices[flat]
    dst = np.repeat(targets, counts)
    vertices = np.unique(np.concatenate([targets, src]))
    lut = np.full(graph.num_vertices, -1, dtype=np.int64)
    lut[vertices] = np.arange(vertices.size)
    return (*_lexsort_csr(lut[src], lut[dst], vertices.size), vertices)


class TestConstruction:
    def test_from_edge_list_basic(self, tiny_graph):
        assert tiny_graph.num_vertices == 4
        assert tiny_graph.num_edges == 6

    def test_neighbors_sorted_per_destination(self, tiny_graph):
        assert sorted(tiny_graph.neighbors(0).tolist()) == [1, 2, 3]
        assert sorted(tiny_graph.neighbors(1).tolist()) == [0, 2]
        assert tiny_graph.neighbors(3).tolist() == []

    def test_empty_graph(self):
        g = from_edge_list([], [], 5)
        assert g.num_edges == 0
        assert g.in_degrees.tolist() == [0] * 5

    def test_single_vertex_self_loop(self):
        g = from_edge_list([0], [0], 1)
        assert g.num_edges == 1
        assert g.neighbors(0).tolist() == [0]

    def test_parallel_edges_kept_without_dedup(self):
        g = from_edge_list([0, 0], [1, 1], 2)
        assert g.num_edges == 2

    def test_dedup_removes_parallel_edges(self):
        g = from_edge_list([0, 0, 1], [1, 1, 0], 2, dedup=True)
        assert g.num_edges == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            from_edge_list([0, 1], [0], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list([0], [5], 2)

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list([-1], [0], 2)

    def test_vertex_count_past_the_int64_key_rejected(self):
        # raised before anything is allocated: an indptr this long would
        # take 24 GB
        with pytest.raises(ValueError, match="overflow int64"):
            from_edge_list([0], [0], 3_037_000_500)


class TestValidation:
    def test_indptr_length_checked(self):
        with pytest.raises(ValueError, match="indptr length"):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0]), num_vertices=3)

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRGraph(
                indptr=np.array([1, 1, 2]), indices=np.array([0, 0]), num_vertices=2
            )

    def test_indptr_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(
                indptr=np.array([0, 2, 1]), indices=np.array([0]), num_vertices=2
            )

    def test_indptr_tail_matches_indices(self):
        with pytest.raises(ValueError, match="indptr\\[-1\\]"):
            CSRGraph(
                indptr=np.array([0, 1, 3]), indices=np.array([0]), num_vertices=2
            )

    def test_indices_range_checked(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(
                indptr=np.array([0, 1]), indices=np.array([7]), num_vertices=1
            )


class TestDegrees:
    def test_in_degrees(self, tiny_graph):
        assert tiny_graph.in_degrees.tolist() == [3, 2, 1, 0]

    def test_out_degrees(self, tiny_graph):
        # sources: 1,2,3,0,2,3 -> counts per vertex
        assert tiny_graph.out_degrees.tolist() == [1, 1, 2, 2]

    def test_degree_sums_match_edges(self, small_random):
        assert small_random.in_degrees.sum() == small_random.num_edges
        assert small_random.out_degrees.sum() == small_random.num_edges

    def test_avg_and_max(self, tiny_graph):
        assert tiny_graph.avg_degree == pytest.approx(1.5)
        assert tiny_graph.max_degree == 3

    def test_avg_degree_empty(self):
        g = CSRGraph(
            indptr=np.zeros(1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            num_vertices=0,
        )
        assert g.avg_degree == 0.0


class TestConversions:
    def test_to_scipy_roundtrip(self, small_random):
        mat = small_random.to_scipy()
        assert mat.shape == (small_random.num_vertices,) * 2
        assert np.array_equal(mat.indptr, small_random.indptr)
        assert np.array_equal(mat.indices, small_random.indices)

    def test_to_scipy_weights(self, tiny_graph):
        w = np.arange(1, 7, dtype=np.float32)
        mat = tiny_graph.to_scipy(weights=w)
        assert mat.sum() == w.sum()

    def test_to_scipy_weight_shape_checked(self, tiny_graph):
        with pytest.raises(ValueError, match="one entry per edge"):
            tiny_graph.to_scipy(weights=np.ones(3))

    def test_reverse_swaps_degrees(self, small_random):
        rev = small_random.reverse()
        assert np.array_equal(rev.in_degrees, small_random.out_degrees)
        assert np.array_equal(rev.out_degrees, small_random.in_degrees)

    def test_reverse_twice_identity(self, small_random):
        rr = small_random.reverse().reverse()
        assert np.array_equal(
            rr.to_scipy().toarray(), small_random.to_scipy().toarray()
        )

    def test_edge_list_roundtrip(self, small_random):
        src, dst = small_random.edge_list()
        back = from_edge_list(src, dst, small_random.num_vertices)
        assert np.array_equal(back.indptr, small_random.indptr)
        assert np.array_equal(np.sort(back.indices), np.sort(small_random.indices))


class TestPermuteSubgraph:
    def test_permute_preserves_degree_multiset(self, small_random, rng):
        perm = rng.permutation(small_random.num_vertices)
        p = small_random.permute(perm)
        assert sorted(p.in_degrees) == sorted(small_random.in_degrees)
        assert p.num_edges == small_random.num_edges

    def test_permute_maps_edges(self, tiny_graph):
        perm = np.array([3, 2, 1, 0])
        p = tiny_graph.permute(perm)
        # edge 1->0 becomes 2->3
        assert 2 in p.neighbors(3)

    def test_permute_rejects_non_permutation(self, tiny_graph):
        with pytest.raises(ValueError, match="permutation"):
            tiny_graph.permute(np.array([0, 0, 1, 2]))

    def test_induced_in_edges(self, tiny_graph):
        # in-edges of vertex 1 (0->1, 2->1) and of vertex 2 (3->2), over
        # {0, 1, 2, 3}; duplicated targets count once
        sub, vertices = tiny_graph.induced_in_edges([2, 1, 2], name="t")
        assert vertices.tolist() == [0, 1, 2, 3]
        assert sub.name == "t"
        assert sub.indptr.tolist() == [0, 0, 2, 3, 3]
        assert sub.indices.tolist() == [0, 2, 3]
        # a target without in-edges keeps only itself
        sub, vertices = tiny_graph.induced_in_edges([3], name="t")
        assert vertices.tolist() == [3] and sub.num_edges == 0

    @pytest.mark.parametrize("bad", [-1, -3, 4])
    def test_induced_in_edges_rejects_out_of_range(self, tiny_graph, bad):
        with pytest.raises(ValueError, match=rf"target ids \[{bad}\]"):
            tiny_graph.induced_in_edges([bad, 1], name="t")

    @pytest.mark.parametrize("abbr", ["CR", "PD", "OA"])
    def test_induced_in_edges_matches_lut_restriction(self, abbr):
        graph = load_dataset(abbr, max_edges=60_000).graph
        n = graph.num_vertices
        rng = np.random.default_rng(11)
        target_sets = [
            np.arange(n),
            *(rng.integers(0, n, size) for size in (1, 3, 40, 700, n // 2)),
        ]
        for targets in target_sets:
            sub, vertices = graph.induced_in_edges(targets, name="sub")
            indptr, indices, expected = _lut_restriction(graph, targets)
            oracle = CSRGraph(indptr, indices, expected.size)
            assert sub.fingerprint() == oracle.fingerprint()
            assert np.array_equal(vertices, expected)
            assert vertices.dtype == np.int64

    def test_stats_keys(self, small_random):
        s = small_random.stats()
        assert s["num_edges"] == small_random.num_edges
        assert s["max_degree"] == small_random.max_degree

    def test_fingerprint_is_content_hash(self, small_random, tiny_graph):
        fp = small_random.fingerprint()
        assert fp == small_random.fingerprint()  # memoized, stable
        assert fp != tiny_graph.fingerprint()
        # identical content in a fresh object hashes identically
        clone = CSRGraph(
            indptr=small_random.indptr.copy(),
            indices=small_random.indices.copy(),
            num_vertices=small_random.num_vertices,
            name="clone",
        )
        assert clone.fingerprint() == fp

    def test_fingerprint_values_variant(self, small_random):
        base = small_random.fingerprint()
        w = np.ones(small_random.num_edges, dtype=np.float32)
        weighted = small_random.fingerprint(values=w)
        assert weighted != base
        assert weighted == small_random.fingerprint(values=w.copy())
        assert weighted != small_random.fingerprint(values=w + 1.0)
        with pytest.raises(ValueError):
            small_random.fingerprint(values=w[:-1])


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=120
    )
)
@settings(max_examples=40, deadline=None)
def test_from_edge_list_property(edges):
    """Every input edge appears exactly once, grouped by destination."""
    src = [e[0] for e in edges]
    dst = [e[1] for e in edges]
    g = from_edge_list(src, dst, 20)
    assert g.num_edges == len(edges)
    got = sorted(zip(g.edge_list()[0].tolist(), g.edge_list()[1].tolist(), strict=True))
    assert got == sorted(zip(src, dst, strict=True))
    assert np.all(np.diff(g.indptr) >= 0)


@st.composite
def _edge_lists(draw):
    """``(num_vertices, edges)``: ids come from a small pool, so duplicate
    edges and self loops are common; the list may be empty."""
    n = draw(st.integers(1, 64))
    pool = st.sampled_from(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    return n, draw(st.lists(st.tuples(pool, pool), max_size=200))


@given(case=_edge_lists(), dedup=st.booleans())
@settings(deadline=None)
def test_keyed_sort_matches_lexsort_oracle(case, dedup):
    """The keyed sort builds the lexsort construction's arrays, dtype included."""
    n, edges = case
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = from_edge_list(src, dst, n, dedup=dedup)
    indptr, indices = _lexsort_csr(src, dst, n, dedup=dedup)
    assert g.indptr.dtype == indptr.dtype and g.indices.dtype == indices.dtype
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
