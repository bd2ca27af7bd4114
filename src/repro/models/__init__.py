"""GNN models: one layer over any registered message-passing spec, the
trainable GCN classifier, and the shared ConvWorkload kernels consume.

The models themselves (GCN, GIN, GraphSAGE, GAT, R-GCN) are defined once,
as specs registered in :mod:`repro.mp`."""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from . import functional
from .convspec import AttentionSpec, ConvWorkload, reference_aggregate
from .layers import GNNLayer, MultiHeadLayer, RelationalLayer
from .training import GCNClassifier, cross_entropy, normalized_adjacency

__all__ = [
    "functional",
    "ConvWorkload",
    "AttentionSpec",
    "reference_aggregate",
    "GNNLayer",
    "MultiHeadLayer",
    "RelationalLayer",
    "GCNClassifier",
    "cross_entropy",
    "normalized_adjacency",
    "MODEL_NAMES",
    "build_conv",
]

#: The four models of the paper's evaluation, in table order.
MODEL_NAMES = ("gcn", "gin", "sage", "gat")


def build_conv(
    model: str,
    graph: CSRGraph,
    X: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
) -> ConvWorkload:
    """Build the graph-convolution workload of ``model`` on ``graph``/``X``.

    Dispatches through the :mod:`repro.mp` UDF registry, so any model
    registered with :func:`repro.mp.register` — not just the builtin zoo —
    resolves here.  GAT needs attention vectors; they are drawn from
    ``rng`` (default seeded) so repeated builds are reproducible.
    """
    from ..mp import build_model, is_registered, registered_models

    if not is_registered(model):
        raise ValueError(
            f"unknown model {model!r}; registered: {registered_models()}"
        )
    return build_model(model, graph, X, rng=rng).workload()
