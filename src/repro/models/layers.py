"""One GNN layer over any registered message-passing spec.

Every GNN layer splits into an aggregation phase (the graph convolution
the paper times) and a combination phase (dense maps and an activation).
:class:`GNNLayer` is that split with the aggregation taken from a model's
registered ``(MessageSpec, ReduceSpec)``:

    act( reference_aggregate(bind(terms, graph, X @ W + b)) [+ X @ W_self] )

where ``W_self`` exists only for a ``concat`` self term (GraphSAGE keeps
its own feature out of the conv).  Multi-head attention and relation-typed
(R-GCN) layers are compositions of it; GIN's MLP is the caller's second
:func:`~repro.models.functional.linear`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.hetero import HeteroGraph
from . import functional as F
from .convspec import ConvWorkload, reference_aggregate

if TYPE_CHECKING:  # repro.mp imports this package: bind it at call time
    from ..mp import MessageSpec, ReduceSpec

__all__ = ["GNNLayer", "MultiHeadLayer", "RelationalLayer"]


@dataclass
class GNNLayer:
    """A registered model's conv between a dense map and an activation."""

    model: str
    message: MessageSpec  # learned term values (GAT's vectors) filled in
    reduce: ReduceSpec
    weight: np.ndarray  # (F_in, F_out)
    bias: np.ndarray | None = None  # (F_out,)
    self_weight: np.ndarray | None = None  # (F_in, F_out), concat self term

    @classmethod
    def init(
        cls, model: str, in_dim: int, out_dim: int, rng: np.random.Generator
    ) -> "GNNLayer":
        """Resolve ``model`` and draw its parameters from ``rng``: the
        weight, then any missing attention vectors, then ``self_weight``."""
        from ..mp import AttentionLogit, resolve

        message, reduce_ = resolve(model)
        weight = F.xavier_uniform((in_dim, out_dim), rng)
        if isinstance(message.scale, AttentionLogit):
            a_src, a_dst = message.scale.vectors(out_dim, rng)
            scale = replace(message.scale, a_src=a_src, a_dst=a_dst)
            message = replace(message, scale=scale)
        concat = reduce_.self_term is not None and reduce_.self_term.kind == "concat"
        return cls(
            model=model.lower(),
            message=message,
            reduce=reduce_,
            weight=weight,
            bias=np.zeros(out_dim, dtype=np.float32),
            self_weight=F.xavier_uniform((in_dim, out_dim), rng) if concat else None,
        )

    def workload(self, graph: CSRGraph, X: np.ndarray) -> ConvWorkload:
        """The layer's timed phase: its conv over the dense-mapped ``X``."""
        from ..mp import bind

        h = F.linear(X, self.weight, self.bias)
        return bind(self.model, self.message, self.reduce, graph, h).workload()

    def forward(
        self, graph: CSRGraph, X: np.ndarray, *, activation: bool = True
    ) -> np.ndarray:
        out = reference_aggregate(self.workload(graph, X))
        if self.self_weight is not None:
            out = out + F.linear(X, self.self_weight)
        return F.relu(out) if activation else out


@dataclass
class MultiHeadLayer:
    """Independent heads of one model, concatenated (hidden layers) or
    averaged (output layers) as in the original GAT.  On the TLPGNN engine
    every head is still one fused kernel."""

    heads: list[GNNLayer]
    combine: str = "concat"  # "concat" | "mean"

    def __post_init__(self) -> None:
        if not self.heads:
            raise ValueError("need at least one head")
        if self.combine not in ("concat", "mean"):
            raise ValueError("combine must be 'concat' or 'mean'")

    @classmethod
    def init(
        cls,
        model: str,
        in_dim: int,
        out_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        *,
        combine: str = "concat",
    ) -> "MultiHeadLayer":
        heads = [GNNLayer.init(model, in_dim, out_dim, rng) for _ in range(num_heads)]
        return cls(heads=heads, combine=combine)

    def head_workloads(self, graph: CSRGraph, X: np.ndarray) -> list[ConvWorkload]:
        """One conv workload per head (for profiling)."""
        return [head.workload(graph, X) for head in self.heads]

    def forward(
        self, graph: CSRGraph, X: np.ndarray, *, activation: bool = True
    ) -> np.ndarray:
        outs = [h.forward(graph, X, activation=activation) for h in self.heads]
        if self.combine == "concat":
            return np.concatenate(outs, axis=1)
        return np.mean(outs, axis=0)


@dataclass
class RelationalLayer:
    """R-GCN: ``act(X @ W_self + sum_r layer_r(G_r, X))``, one
    :class:`GNNLayer` of the ``rgcn`` spec (neighbour mean) per relation,
    so the unchanged homogeneous kernel runs once per relation graph."""

    self_weight: np.ndarray
    relations: dict[str, GNNLayer]

    @classmethod
    def init(
        cls, hetero: HeteroGraph, in_dim: int, out_dim: int, rng: np.random.Generator
    ) -> "RelationalLayer":
        return cls(
            self_weight=F.xavier_uniform((in_dim, out_dim), rng),
            relations={
                name: GNNLayer.init("rgcn", in_dim, out_dim, rng)
                for name in hetero.relation_names
            },
        )

    def forward(
        self, hetero: HeteroGraph, X: np.ndarray, *, activation: bool = True
    ) -> np.ndarray:
        out = F.linear(X, self.self_weight)
        for name, layer in self.relations.items():
            out = out + layer.forward(hetero.relations[name], X, activation=False)
        return F.relu(out) if activation else out
