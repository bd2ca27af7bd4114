"""Property tests: derived tables stay honest for *any* legal UDF.

The pinned equivalence suite proves the derivation reproduces the old
hand-written tables for the builtin zoo; these tests close the other
half of the contract — for randomly drawn legal ``(MessageSpec,
ReduceSpec)`` terms on random small graphs, the derived effect and
access tables must still agree with the measured models
(``cross_validate_effects`` / ``cross_validate_access`` triangulate
declaration vs vectorized counters vs the exact micro-simulator), and
lowering must be a pure function of the spec structure.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frameworks.dglsim import DGLSystem
from repro.frameworks.featgraph import FeatGraphSystem
from repro.frameworks.gnnadvisor import GNNAdvisorSystem
from repro.frameworks.tlpgnn_engine import TLPGNNEngine
from repro.graph.csr import from_edge_list
from repro.kernels.edge_centric import EdgeCentricKernel
from repro.kernels.neighbor_group import NeighborGroupKernel
from repro.kernels.pull_thread import PullThreadKernel
from repro.kernels.push import PushKernel
from repro.kernels.tlpgnn import TLPGNNKernel
from repro.lint.access import cross_validate_access
from repro.lint.effects import cross_validate_effects
from repro.mp import (
    AttentionLogit,
    EdgeScalar,
    MessageSpec,
    ReduceSpec,
    SelfTerm,
    SymNorm,
    bind,
    register,
    unregister,
)

KERNELS = (
    TLPGNNKernel(),
    PullThreadKernel(),
    PushKernel(),
    EdgeCentricKernel(),
    NeighborGroupKernel(group_size=3),
)

SYSTEMS = (
    TLPGNNEngine(),
    DGLSystem(),
    FeatGraphSystem(),
    GNNAdvisorSystem(),
)


@st.composite
def cells(draw):
    """A random small graph + feature matrix (micro-sim sized)."""
    n = draw(st.integers(min_value=4, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    src, dst = zip(*edges)
    graph = from_edge_list(src, dst, n, name="prop")
    feat = draw(st.sampled_from((4, 8, 32)))
    seed = draw(st.integers(0, 2**16))
    X = (
        np.random.default_rng(seed)
        .standard_normal((n, feat))
        .astype(np.float32)
    )
    return graph, X


@st.composite
def legal_specs(draw, graph):
    """Any (message, reduce) pair the closed-world validation admits."""
    feature = draw(st.sampled_from(("src", "dst")))
    if feature == "dst":
        scale = draw(
            st.sampled_from((None, "sym_norm", "edge_scalar"))
        )
        op = draw(st.sampled_from(("sum", "mean")))
        normalize, self_term = None, None
    else:
        scale = draw(
            st.sampled_from(
                (None, "sym_norm", "edge_scalar", "attention")
            )
        )
        if scale == "attention":
            op, normalize = "sum", "softmax"
        else:
            op = draw(st.sampled_from(("sum", "mean", "max")))
            normalize = None
        self_term = draw(
            st.one_of(
                st.none(),
                st.builds(
                    SelfTerm,
                    kind=st.sampled_from(("scaled", "eps", "concat")),
                    eps=st.floats(0.0, 1.0),
                ),
            )
        )
    if scale == "sym_norm":
        scale = SymNorm()
    elif scale == "edge_scalar":
        w_seed = draw(st.integers(0, 2**16))
        scale = EdgeScalar(
            values=np.random.default_rng(w_seed)
            .uniform(0.1, 2.0, graph.num_edges)
            .astype(np.float32)
        )
    elif scale == "attention":
        scale = AttentionLogit(
            negative_slope=draw(st.sampled_from((0.01, 0.2)))
        )
    return (
        MessageSpec(feature=feature, scale=scale),
        ReduceSpec(op=op, normalize=normalize, self_term=self_term),
    )


@st.composite
def bound_models(draw):
    graph, X = draw(cells())
    message, reduce_ = draw(legal_specs(graph))
    return bind(
        "prop", message, reduce_, graph, X, rng=np.random.default_rng(0)
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(model=bound_models())
def test_derived_effect_tables_are_honest(model):
    """Derived atomic/read/write declarations match the measured models
    for every kernel that supports the random workload."""
    workload = model.workload()
    checked = 0
    for kernel in KERNELS:
        if not kernel.supports(workload):
            continue
        assert cross_validate_effects(kernel, workload) == [], (
            f"{kernel.name}: {model.signature()}"
        )
        checked += 1
    assert checked > 0  # TLPGNN's fused kernel supports every legal spec


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(model=bound_models())
def test_derived_access_tables_are_honest(model):
    """Derived static sector classes agree with both measured memory
    models (counter model + exact micro-sim) on random legal specs."""
    workload = model.workload()
    for kernel in KERNELS:
        if not kernel.supports(workload):
            continue
        assert cross_validate_access(kernel, workload) == [], (
            f"{kernel.name}: {model.signature()}"
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_lowering_is_deterministic(data):
    """Same registered spec + same cell => every framework emits the
    identical op-name sequence, twice in a row."""
    graph, X = data.draw(cells())
    message, reduce_ = data.draw(legal_specs(graph))

    register("proptest", lambda: (message, reduce_), replace=True)
    try:
        for system in SYSTEMS:
            if not system.supports("proptest"):
                continue
            names = [
                tuple(op.name for op in system.lower("proptest", graph, X).ops)
                for _ in range(2)
            ]
            assert names[0] == names[1], system.name
    finally:
        unregister("proptest")


def test_hypothesis_is_available():
    # the property suite is part of tier-1: fail loudly if the plugin
    # ever disappears from the image instead of silently collecting 0
    assert settings().max_examples > 0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
