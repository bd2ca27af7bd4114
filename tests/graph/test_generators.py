"""Synthetic graph generators: shape, determinism, and degree properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    chain,
    complete,
    empty,
    erdos_renyi,
    from_edge_list,
    power_law,
    star,
)
from repro.graph.generators import regular_edges


class TestErdosRenyi:
    def test_edge_count_exact(self):
        g = erdos_renyi(100, 500, seed=1)
        assert g.num_edges == 500
        assert g.num_vertices == 100

    def test_no_self_loops_by_default(self):
        g = erdos_renyi(50, 400, seed=2)
        src, dst = g.edge_list()
        assert not np.any(src == dst)

    def test_self_loops_allowed(self):
        g = erdos_renyi(10, 2000, seed=3, allow_self_loops=True)
        src, dst = g.edge_list()
        assert np.any(src == dst)  # statistically certain at this density

    def test_deterministic(self):
        a = erdos_renyi(40, 100, seed=9)
        b = erdos_renyi(40, 100, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self):
        a = erdos_renyi(40, 100, seed=9)
        b = erdos_renyi(40, 100, seed=10)
        assert not np.array_equal(a.indices, b.indices)


class TestPowerLaw:
    def test_edge_count(self):
        g = power_law(200, 2000, seed=0)
        assert g.num_edges == 2000

    def test_skewed_degrees(self):
        g = power_law(500, 5000, exponent=2.0, seed=0)
        deg = g.in_degrees
        # heavy tail: hottest vertex far above the mean
        assert deg.max() > 5 * deg.mean()

    def test_higher_exponent_less_skew(self):
        lo = power_law(500, 5000, exponent=2.0, seed=0)
        hi = power_law(500, 5000, exponent=3.5, seed=0)
        assert lo.in_degrees.max() > hi.in_degrees.max()

    def test_max_degree_cap(self):
        capped = power_law(500, 5000, exponent=2.0, max_degree=60, seed=0)
        # expected-degree cap: allow modest statistical overshoot
        assert capped.in_degrees.max() <= 60 * 1.5

    def test_invalid_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            power_law(10, 10, exponent=1.0)

    def test_no_self_loops(self):
        g = power_law(100, 1000, seed=4)
        src, dst = g.edge_list()
        assert not np.any(src == dst)


class TestRegularAndPathological:
    def test_regular_degrees(self):
        g = from_edge_list(*regular_edges(64, 5, seed=0), 64)
        assert np.all(g.in_degrees == 5)
        src, dst = g.edge_list()
        assert not np.any(src == dst)

    def test_star_degrees(self):
        g = star(10)
        assert g.in_degrees[0] == 9
        assert np.all(g.in_degrees[1:] == 0)

    def test_star_minimum(self):
        with pytest.raises(ValueError):
            star(0)
        assert star(1).num_edges == 0

    def test_chain(self):
        g = chain(10)
        assert g.num_edges == 9
        assert g.in_degrees[0] == 0
        assert np.all(g.in_degrees[1:] == 1)

    def test_complete(self):
        g = complete(6)
        assert g.num_edges == 30
        assert np.all(g.in_degrees == 5)

    def test_empty(self):
        g = empty(7)
        assert g.num_edges == 0
        assert g.num_vertices == 7


@given(
    n=st.integers(2, 60),
    m=st.integers(0, 300),
    seed=st.integers(0, 5),
)
@settings(max_examples=30, deadline=None)
def test_erdos_renyi_property(n, m, seed):
    g = erdos_renyi(n, m, seed=seed)
    assert g.num_edges == m
    assert g.in_degrees.sum() == m
    src, dst = g.edge_list()
    assert not np.any(src == dst)


@given(n=st.integers(2, 50), m=st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_power_law_property(n, m):
    g = power_law(n, m, seed=1)
    assert g.num_edges == m
    assert g.in_degrees.sum() == m
