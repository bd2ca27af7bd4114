"""Shared fixtures: small graphs and workloads every suite reuses."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import settings

from repro.graph import CSRGraph, chain, erdos_renyi, from_edge_list, power_law, star
from repro.models import build_conv, reference_aggregate
from repro.models.convspec import ConvWorkload
from repro.plan import execute_plan, get_plan_cache, plan_for_kernel

#: ``--hypothesis-profile=thorough``: a long run of the property tests that
#: leave ``max_examples`` to the profile (CI runs the scheduler oracle so);
#: tier-1 keeps the default profile
settings.register_profile("thorough", max_examples=5000, deadline=None)


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Isolate tests from the process-global plan cache (and vice versa)."""
    cache = get_plan_cache()
    if cache is not None:
        cache.clear()
    yield
    cache = get_plan_cache()
    if cache is not None:
        cache.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """The paper's Figure 1 example: B, C, D -> A plus a few extra edges."""
    src = [1, 2, 3, 0, 2, 3]
    dst = [0, 0, 0, 1, 1, 2]
    return from_edge_list(src, dst, 4, name="fig1")


@pytest.fixture
def small_random() -> CSRGraph:
    return erdos_renyi(60, 300, seed=3, name="small_random")


@pytest.fixture
def skewed_graph() -> CSRGraph:
    return power_law(80, 600, exponent=2.1, seed=5, name="skewed")


@pytest.fixture
def chain_graph() -> CSRGraph:
    return chain(32)


@pytest.fixture
def star_graph() -> CSRGraph:
    return star(33)


def make_workload(
    graph: CSRGraph,
    model: str = "gcn",
    feat_dim: int = 16,
    seed: int = 0,
) -> ConvWorkload:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((graph.num_vertices, feat_dim), dtype=np.float32)
    return build_conv(model, graph, X, rng=rng)


def assert_plan_is_reference(kernel, wl: ConvWorkload) -> None:
    """The kernel's one-launch plan computes the reference output byte for
    byte and its counter model costs the launch; a workload the kernel
    cannot execute is refused by both entry points instead."""
    if not kernel.supports(wl):
        refused = re.escape(repr(kernel.name))
        with pytest.raises(ValueError, match=refused):
            plan_for_kernel(kernel, wl)
        with pytest.raises(ValueError, match=refused):
            kernel.execute(wl)
        return
    plan = plan_for_kernel(kernel, wl)
    assert plan.conv_op.kernel is kernel
    assert np.array_equal(execute_plan(plan), reference_aggregate(wl))
    res = kernel.execute(wl)
    res.stats.validate()
    assert res.timing.gpu_seconds > 0


@pytest.fixture
def gcn_workload(small_random) -> ConvWorkload:
    return make_workload(small_random, "gcn", 16)


@pytest.fixture
def gat_workload(small_random) -> ConvWorkload:
    return make_workload(small_random, "gat", 16)
