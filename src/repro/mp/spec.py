"""The message-passing UDF algebra: what a user writes to define a conv.

A graph convolution is a *send* over edges plus a *recv* per destination
(the PGL/DGL send/recv paradigm, PAPERS.md).  Instead of free-form
callables, the send is a **closed algebra of terms** — a feature gather
from one edge endpoint, optionally scaled by a per-edge scalar, a
vertex-factorized norm, or an attention logit — and the recv is a
reduction (``sum | mean | max``) with an optional edge-softmax
normalization and an optional self-term.  Because the algebra is closed,
everything downstream is *derived*, not declared:

* the numeric semantics (:meth:`MPModel.workload` compiles to the shared
  :class:`~repro.models.convspec.ConvWorkload` every kernel consumes),
* each framework's lowering stages (:mod:`repro.mp.lower`),
* kernel effect tables and per-lane access patterns
  (:mod:`repro.mp.derive`), which feed the lint and optimizer layers.

The closed-world validation happens in ``__post_init__``: every term
combination that reaches a framework is one the derivation rules cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..models import functional as F
from ..models.convspec import AttentionSpec, ConvWorkload

__all__ = [
    "AttentionLogit",
    "EdgeScalar",
    "MessageSpec",
    "MPModel",
    "ReduceSpec",
    "SelfTerm",
    "SymNorm",
    "bind",
]

_FEATURES = ("src", "dst")
_REDUCES = ("sum", "mean", "max")
_SELF_KINDS = ("scaled", "eps", "concat")


# ----------------------------------------------------------------------
# send-side scale terms (the closed algebra)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SymNorm:
    """Vertex-factorized symmetric norm: ``w(u,v) = c[u] * c[v]`` with
    ``c = 1/sqrt(d+1)`` (GCN's renormalized adjacency).  Factorized form
    matters to lowering: multi-kernel baselines may pre/post-scale the
    dense features instead of materializing per-edge weights."""

    def signature(self) -> str:
        return "sym_norm"

    def weights(self, graph: CSRGraph) -> np.ndarray:
        """The per-edge weights ``1/sqrt((d_u+1)(d_v+1))`` in CSR order."""
        inv_sqrt = 1.0 / np.sqrt(graph.in_degrees.astype(np.float64) + 1.0)
        return (
            np.repeat(inv_sqrt, graph.in_degrees) * inv_sqrt[graph.indices]
        ).astype(np.float32)


@dataclass(frozen=True, eq=False)
class EdgeScalar:
    """A raw per-edge scalar ``w[e]`` in CSR edge order (edge weights,
    learned gates, distances — any data the user attaches to edges).
    ``values=None`` binds to all-ones (an explicit unweighted send)."""

    values: np.ndarray | None = None
    name: str = "weight"

    def signature(self) -> str:
        return f"edge_scalar[{self.name}]"


@dataclass(frozen=True, eq=False)
class AttentionLogit:
    """GAT's attention term: ``logit(u,v) = LeakyReLU(asrc[v] + adst[u])``
    from per-vertex scalars ``asrc = X @ a_src``, ``adst = X @ a_dst``.

    This term is the single source of truth for the softmax structure:
    the reduce side must pair it with ``normalize="softmax"``, and both
    the fused kernel's extra passes and the unfused three-stage pipeline
    (apply-edge -> edge-softmax -> aggregate) are derived from it
    (:func:`repro.mp.lower.softmax_stages`).

    ``a_src``/``a_dst`` are the (F,) attention vectors; ``None`` draws
    Xavier-initialized vectors from the binding rng (the builtin GAT).
    """

    a_src: np.ndarray | None = None
    a_dst: np.ndarray | None = None
    negative_slope: float = 0.2

    def signature(self) -> str:
        return f"attention[slope={self.negative_slope}]"

    def vectors(
        self, dim: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(a_src, a_dst)``.  If either is missing, two Xavier-uniform
        (dim,) vectors are drawn from ``rng``, ``a_src``'s first, and each
        fills its missing slot."""
        a_src, a_dst = self.a_src, self.a_dst
        if a_src is None or a_dst is None:
            drawn_src = F.xavier_uniform((dim, 1), rng)[:, 0]
            drawn_dst = F.xavier_uniform((dim, 1), rng)[:, 0]
            a_src = drawn_src if a_src is None else a_src
            a_dst = drawn_dst if a_dst is None else a_dst
        return a_src, a_dst

    def bind(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> AttentionSpec:
        """Resolve to the numeric per-vertex scalars of one (X, rng)."""
        a_src, a_dst = self.vectors(X.shape[1], rng)
        # einsum reduces in its own loop; a BLAS gemv's summation order,
        # and so the output bytes, depends on the BLAS thread count
        return AttentionSpec(
            att_src=np.einsum("ij,j->i", X, a_src).astype(np.float32),
            att_dst=np.einsum("ij,j->i", X, a_dst).astype(np.float32),
            negative_slope=self.negative_slope,
        )


_SCALE_TERMS = (SymNorm, EdgeScalar, AttentionLogit)


# ----------------------------------------------------------------------
# the send / recv halves
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class MessageSpec:
    """The edge ``send``: which endpoint's feature row the message
    carries and the (optional) scalar term multiplying it."""

    feature: str = "src"
    scale: SymNorm | EdgeScalar | AttentionLogit | None = None

    def __post_init__(self) -> None:
        if self.feature not in _FEATURES:
            raise ValueError(f"feature must be one of {_FEATURES}")
        if self.scale is not None and not isinstance(self.scale, _SCALE_TERMS):
            raise ValueError(
                f"scale must be one of {[t.__name__ for t in _SCALE_TERMS]} "
                f"or None, got {type(self.scale).__name__}"
            )

    def signature(self) -> str:
        s = "1" if self.scale is None else self.scale.signature()
        return f"{s} * feat[{self.feature}]"


@dataclass(frozen=True)
class SelfTerm:
    """The destination's own contribution added after the reduce.

    * ``"scaled"`` — ``c[u] * X[u]`` with ``c = 1/(d+1)`` (GCN's
      renormalization self-loop),
    * ``"eps"`` — ``(1 + eps) * X[u]`` (GIN),
    * ``"concat"`` — the self feature is kept separate and combined in
      the dense phase (GraphSAGE); the conv itself adds nothing, but
      multi-kernel lowerings pay a concat-materialization epilogue.
    """

    kind: str = "scaled"
    eps: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _SELF_KINDS:
            raise ValueError(f"kind must be one of {_SELF_KINDS}")

    def signature(self) -> str:
        if self.kind == "eps":
            return f"self[(1+{self.eps}) * x]"
        if self.kind == "concat":
            return "self[concat]"
        return "self[1/(d+1) * x]"

    def coeff(self, graph: CSRGraph) -> np.ndarray | None:
        """The numeric per-vertex coefficient (None for dense-phase concat)."""
        if self.kind == "concat":
            return None
        if self.kind == "eps":
            return np.full(
                graph.num_vertices, 1.0 + self.eps, dtype=np.float32
            )
        deg = graph.in_degrees.astype(np.float64) + 1.0
        return (1.0 / deg).astype(np.float32)


@dataclass(frozen=True)
class ReduceSpec:
    """The per-destination ``recv``: reduction op, optional edge-softmax
    normalization of the scalar term, optional self-term."""

    op: str = "sum"
    normalize: str | None = None  # None | "softmax"
    self_term: SelfTerm | None = None

    def __post_init__(self) -> None:
        if self.op not in _REDUCES:
            raise ValueError(f"op must be one of {_REDUCES}")
        if self.normalize not in (None, "softmax"):
            raise ValueError("normalize must be None or 'softmax'")
        if self.normalize == "softmax" and self.op != "sum":
            raise ValueError("softmax normalization requires the sum reduce")

    def signature(self) -> str:
        parts = [self.op]
        if self.normalize:
            parts.append(self.normalize)
        if self.self_term is not None:
            parts.append(self.self_term.signature())
        return " + ".join(parts)


# ----------------------------------------------------------------------
# the bound model: spec structure + one (graph, X) instance
# ----------------------------------------------------------------------
@dataclass(eq=False)
class MPModel:
    """One message-passing UDF bound to a concrete ``(graph, X)`` cell.

    ``workload()`` compiles the terms to the numeric
    :class:`~repro.models.convspec.ConvWorkload` — the carrier every
    kernel, reference aggregate, and golden fixture already consumes, so
    the UDF layer changes *how models are described*, never what they
    compute.
    """

    name: str
    message: MessageSpec
    reduce: ReduceSpec
    graph: CSRGraph
    X: np.ndarray
    _workload: ConvWorkload | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        validate(self.message, self.reduce)

    @property
    def has_softmax(self) -> bool:
        return self.reduce.normalize == "softmax"

    def signature(self) -> str:
        """Deterministic one-line structure key (no numeric payloads)."""
        return (
            f"{self.name}: recv[{self.reduce.signature()}] of "
            f"send[{self.message.signature()}]"
        )

    def workload(self) -> ConvWorkload:
        if self._workload is None:
            self._workload = _compile(self)
        return self._workload


def validate(message: MessageSpec, reduce: ReduceSpec) -> None:
    """The closed-world rules: every combination that passes has a
    derivation (lowering stages + effect/access tables) in this repo."""
    attention = isinstance(message.scale, AttentionLogit)
    if attention and reduce.normalize != "softmax":
        raise ValueError(
            "an AttentionLogit scale requires normalize='softmax' "
            "(unnormalized logits have no closed lowering)"
        )
    if reduce.normalize == "softmax" and not attention:
        raise ValueError(
            "normalize='softmax' requires an AttentionLogit scale term"
        )
    if message.feature == "dst" and (
        attention or reduce.self_term is not None or reduce.op == "max"
    ):
        raise ValueError(
            "feature='dst' sends compose only with sum/mean reduces and "
            "no self-term (the destination row is the self feature)"
        )


def bind(
    name: str,
    message: MessageSpec,
    reduce: ReduceSpec,
    graph: CSRGraph,
    X: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
) -> MPModel:
    """Bind a spec to one cell (numeric terms resolved via ``rng``)."""
    rng = rng or np.random.default_rng(0)
    X = np.ascontiguousarray(X, dtype=np.float32)
    model = MPModel(name=name, message=message, reduce=reduce, graph=graph, X=X)
    model._workload = _compile(model, rng=rng)
    return model


def _compile(
    model: MPModel, *, rng: np.random.Generator | None = None
) -> ConvWorkload:
    """Term semantics -> the kernel-agnostic numeric workload."""
    graph, X = model.graph, np.ascontiguousarray(model.X, dtype=np.float32)
    scale = model.message.scale
    edge_weights = None
    attention = None
    if isinstance(scale, SymNorm):
        edge_weights = scale.weights(graph)
    elif isinstance(scale, EdgeScalar):
        edge_weights = (
            np.ones(graph.num_edges, dtype=np.float32)
            if scale.values is None
            else np.ascontiguousarray(scale.values, dtype=np.float32)
        )
    elif isinstance(scale, AttentionLogit):
        attention = scale.bind(X, rng or np.random.default_rng(0))
    st = model.reduce.self_term
    self_coeff = st.coeff(graph) if st is not None else None
    if model.message.feature == "dst":
        # The destination row is warp-resident under vertex ownership, so
        # a dst send folds into the self slot: reduce_v w(u,v)*X[u] equals
        # (segment-reduced w) * X[u].  The edge walk (and its scalar
        # traffic) still happens — edge_weights stays materialized.
        w = (
            edge_weights
            if edge_weights is not None
            else np.ones(graph.num_edges, dtype=np.float32)
        )
        folded = np.add.reduceat(
            np.append(w.astype(np.float64), 0.0),
            np.minimum(graph.indptr[:-1], graph.num_edges),
        )
        folded = np.where(graph.in_degrees > 0, folded, 0.0)
        if model.reduce.op == "mean":
            folded = folded / np.maximum(
                graph.in_degrees.astype(np.float64), 1.0
            )
        self_coeff = folded.astype(np.float32)
        edge_weights = np.zeros(graph.num_edges, dtype=np.float32)
    return ConvWorkload(
        graph=graph,
        X=X,
        edge_weights=edge_weights,
        self_coeff=self_coeff,
        reduce=model.reduce.op,
        attention=attention,
    )
