"""Lowering determinism + plan IR structure across the four systems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frameworks import SYSTEMS
from repro.frameworks.dglsim import DGL_KERNEL_COUNTS
from repro.graph import erdos_renyi, power_law
from repro.plan import ExecutionPlan, plan_fingerprint


def _features(graph, feat_dim=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((graph.num_vertices, feat_dim), dtype=np.float32)


@given(
    n=st.integers(4, 50),
    m=st.integers(1, 200),
    feat=st.sampled_from([8, 16, 32]),
    model=st.sampled_from(["gcn", "gin", "sage", "gat"]),
    name=st.sampled_from(sorted(SYSTEMS)),
    skewed=st.booleans(),
    seed=st.integers(0, 20),
)
@settings(max_examples=60, deadline=None)
def test_lowering_is_deterministic(n, m, feat, model, name, skewed, seed):
    """Same inputs lower to identical plan fingerprints and op lists."""
    system = SYSTEMS[name]()
    if not system.supports(model):
        return
    g = power_law(n, m, seed=seed) if skewed else erdos_renyi(n, m, seed=seed)
    X = _features(g, feat, seed=seed)
    a = system.lower(model, g, X)
    b = SYSTEMS[name]().lower(model, g, X)
    assert isinstance(a, ExecutionPlan)
    assert a.fingerprint == b.fingerprint
    assert a.op_names == b.op_names
    assert a.num_kernels == b.num_kernels
    assert a.pipeline_name == b.pipeline_name


@given(seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_fingerprint_changes_with_any_key_part(seed):
    """Flipping each cache-key component flips the fingerprint.  The
    features enter as their shape and dtype: a profile reads no feature
    value, so other values of one geometry share the key."""
    g = erdos_renyi(20, 60, seed=seed)
    g2 = erdos_renyi(20, 61, seed=seed)
    X = _features(g, 8, seed=seed)
    from repro.gpusim.config import V100

    base = dict(system="S", model="gcn", graph=g, X=X, spec=V100, knobs={"k": 1})
    ref = plan_fingerprint(**base)
    assert plan_fingerprint(**{**base, "system": "T"}) != ref
    assert plan_fingerprint(**{**base, "model": "gin"}) != ref
    assert plan_fingerprint(**{**base, "graph": g2}) != ref
    assert plan_fingerprint(**{**base, "X": X[:, :4]}) != ref
    assert plan_fingerprint(**{**base, "X": X.astype(np.float64)}) != ref
    assert plan_fingerprint(**{**base, "X": X + 1.0}) == ref
    assert plan_fingerprint(**{**base, "knobs": {"k": 2}}) != ref
    # and stability: recomputing yields the same digest
    assert plan_fingerprint(**base) == ref


def test_lowering_has_no_side_effects(small_random):
    """lower() is the compile stage only: nothing executes, nothing caches."""
    from repro.plan import get_plan_cache

    X = _features(small_random)
    cache = get_plan_cache()
    plan = SYSTEMS["TLPGNN"]().lower("gcn", small_random, X)
    assert len(cache) == 0 and cache.misses == 0
    assert plan.fingerprint is not None
    assert plan.num_kernels == 1


def test_dgl_plan_matches_paper_kernel_counts(small_random):
    X = _features(small_random)
    for model, count in DGL_KERNEL_COUNTS.items():
        plan = SYSTEMS["DGL"]().lower(model, small_random, X)
        assert plan.num_kernels == count, model


def test_describe_mentions_every_op(small_random):
    X = _features(small_random)
    plan = SYSTEMS["DGL"]().lower("gcn", small_random, X)
    text = plan.describe()
    for op in plan.op_names:
        assert op in text
    assert plan.fingerprint[:16] in text
