"""Schedule-free dataflow normal form of an ExecutionPlan.

Translation validation needs a canonical object two plans can be compared
through — one that keeps everything that decides *what* a plan computes
and forgets everything that only decides *how fast* it computes it.  The
normal form here is a set of per-output-buffer **producer terms** built
from the two sources of truth the repo already maintains:

* the :mod:`repro.mp` term algebra, reified numerically in the compute
  step's :class:`~repro.models.convspec.ConvWorkload` (which feature rows
  are gathered, through which graph, scaled by what, reduced with which
  operator, plus the optional self term and output permutation), and
* the derived :class:`~repro.mp.derive.KernelMapping` effect tables,
  which decide the **ordering class** — whether the reduction is merged
  by exclusive owner-computes writes (bit-exact by construction) or by
  atomic read-modify-writes (bit-exact only for idempotent merges like
  ``max``; a *reassociation class* for float sums, cf. DET001).

Everything schedule-like — lane counts, warps per block, register
caching, launch geometry, kernel identity, fusion structure, the op list
beyond its dataflow closure — is deliberately absent: two plans that
differ only in those have the *same* normal form, which is exactly the
legality claim of every rewrite in :mod:`repro.opt.rewrites`.

Like the lint package this module duck-types its plan (it never imports
:mod:`repro.plan`); it depends only on :mod:`repro.lint` and
:mod:`repro.identity`, which owns every content key.  The array digests
of a term are memoized on their frozen owner (the workload, its
attention spec, the compute step), so normalizing many plans that share
one workload hashes its feature matrix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..identity import content_key, owned_digest
from ..lint import Finding, is_transient, make_finding

__all__ = [
    "ORDER_EXACT",
    "ORDER_FLOAT_SUM",
    "ORDERING_CLASSES",
    "ProducerTerm",
    "PlanNormalForm",
    "normalize_plan",
    "plan_label",
]

#: the merge discipline is a total order per unit: exclusive writes (or an
#: idempotent atomic merge) reproduce the reference reduction bit for bit
ORDER_EXACT = "exact"
#: atomic float accumulation: the result is defined only up to the
#: reassociation class of the reduction (DET001's warning, as a class)
ORDER_FLOAT_SUM = "float-sum-reassoc"

ORDERING_CLASSES = (ORDER_EXACT, ORDER_FLOAT_SUM)

#: non-transient buffers canonicalized to their semantic class: every
#: legal mapping rebind stays inside one class (CSR vs COO vs grouped
#: traversal all read "the graph"), so the dataflow closure is invariant
#: under the optimizer's kernel swaps
_SOURCE_CLASSES = {
    "indptr": "graph",
    "indices": "graph",
    "group_table": "graph",
    "feat": "feat",
    "edge_vals": "edge-scalar",
    "att": "att",
}

#: reductions whose atomic merge is idempotent — merge order cannot
#: change the result, so atomics still land in the exact ordering class
_IDEMPOTENT_REDUCES = ("max",)


def plan_label(plan: Any) -> str:
    """The same "System/model on graph" label the lint reports use."""
    return f"{plan.system}/{plan.model} on {plan.graph_name}"


@dataclass(frozen=True)
class ProducerTerm:
    """What one output buffer *is*, schedule-free.

    ``out = output_perm( reduce( scale * gather(feature via graph) )
    [+ self_term] )`` — each component identified by content hash so
    equality of terms is equality of the computation, not of the code
    path that produced it.
    """

    buffer: str
    #: CSR content fingerprint of the gathered-through graph
    graph: str
    #: content hash of the dense feature matrix
    feature: str
    #: the send-side scalar term: ("unit",) | ("edge-scalar", hash) |
    #: ("attention", hash(att_src), hash(att_dst), repr(slope))
    scale: tuple[str, ...]
    #: content hash of the per-vertex self coefficient (None = no self term)
    self_term: str | None
    #: the recv-side reduction operator ("sum" | "mean" | "max")
    reduce: str
    #: content hash of the output row permutation (None = identity)
    output_perm: str | None
    #: canonicalized non-transient buffers the dataflow closure reaches
    sources: tuple[str, ...]
    #: ORDER_EXACT | ORDER_FLOAT_SUM | None (None = unprovable, EQ001)
    ordering: str | None

    #: field order of the semantic payload — the comparison (and the
    #: "minimal diverging term" explanation) walks exactly these, in
    #: this order; ``ordering`` is deliberately last and non-semantic
    SEMANTIC_FIELDS = (
        "graph",
        "feature",
        "scale",
        "self_term",
        "reduce",
        "output_perm",
        "sources",
    )

    def as_dict(self) -> dict[str, Any]:
        return {
            "buffer": self.buffer,
            "graph": self.graph,
            "feature": self.feature,
            "scale": list(self.scale),
            "self_term": self.self_term,
            "reduce": self.reduce,
            "output_perm": self.output_perm,
            "sources": list(self.sources),
            "ordering": self.ordering,
        }


@dataclass(frozen=True)
class PlanNormalForm:
    """The canonicalized dataflow of one plan: terms + derivation findings."""

    label: str
    terms: tuple[ProducerTerm, ...]
    #: EQ001 findings raised while deriving (non-empty = unprovable)
    findings: tuple[Finding, ...] = ()

    @property
    def provable(self) -> bool:
        """Whether equivalence involving this form can be decided at all."""
        return not self.findings and all(
            t.ordering is not None for t in self.terms
        )

    def term(self, buffer: str) -> ProducerTerm | None:
        for t in self.terms:
            if t.buffer == buffer:
                return t
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "terms": [t.as_dict() for t in self.terms],
            "provable": self.provable,
        }

    @property
    def digest(self) -> str:
        """Content sha256 of the terms — the certificate's plan identity.

        The label is *excluded*: the digest identifies the computation,
        not the system that lowered it.
        """
        return content_key([t.as_dict() for t in self.terms], compact=True)


def _scale_term(workload: Any) -> tuple[str, ...]:
    """Canonicalize the send-side scalar to a content-addressed tuple."""
    att = workload.attention
    if att is not None:
        return (
            "attention",
            owned_digest(att, "att_src") or "",
            owned_digest(att, "att_dst") or "",
            repr(att.negative_slope),
        )
    if workload.edge_weights is not None:
        return ("edge-scalar", owned_digest(workload, "edge_weights") or "")
    return ("unit",)


def _ordering_class(
    compute: Any, workload: Any
) -> tuple[str | None, list[Finding]]:
    """Derive the merge discipline of the compute step.

    ``reference`` computes in a single serial pass — exact.  A kernel's
    class follows from its derived effect table: exclusive writes are
    exact; atomic merges are exact only for idempotent reductions and
    fall into the float-sum reassociation class otherwise.  A kernel
    that declares no effect table is unprovable (EQ001).
    """
    if compute.kind == "reference":
        return ORDER_EXACT, []
    kernel = compute.kernel
    effects = None
    decl = getattr(kernel, "effects", None)
    if callable(decl):
        effects = decl(workload)
    if effects is None:
        name = getattr(kernel, "name", type(kernel).__name__)
        return None, [
            make_finding(
                "EQ001",
                f"compute kernel {name!r} declares no effect table: its "
                "merge discipline (and hence the reduction ordering "
                "class) cannot be derived",
                op=name,
                buffer="out",
            )
        ]
    if "out" in effects.atomics or effects.atomic_ops > 0:
        if workload.reduce in _IDEMPOTENT_REDUCES:
            return ORDER_EXACT, []  # idempotent merge: order-free
        return ORDER_FLOAT_SUM, []
    return ORDER_EXACT, []


def _dataflow_sources(ops: Any) -> tuple[tuple[str, ...], list[Finding]]:
    """Backward dataflow closure from ``out`` over the op effect tables.

    Walks producer edges through transient buffers and canonicalizes
    every non-transient read to its semantic class.  An op without an
    effect table makes the closure unprovable (EQ001) — the same
    condition HAZ001 flags, restated as an equivalence obstruction.
    """
    findings: list[Finding] = []
    tables = []
    for op in ops:
        eff = getattr(op, "effects", None)
        if eff is None:
            findings.append(
                make_finding(
                    "EQ001",
                    f"op {op.name!r} carries no effect table: the "
                    "dataflow closure over the plan cannot be derived",
                    op=op.name,
                )
            )
            continue
        tables.append((op, eff))
    sources: set[str] = set()
    targets = {"out"}
    visited: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, (_op, eff) in enumerate(tables):
            produced = set(eff.writes) | set(eff.atomics)
            if i in visited or not (produced & targets):
                continue
            visited.add(i)
            changed = True
            for b in eff.reads:
                if is_transient(b):
                    targets.add(b)
                elif b not in targets:
                    # a read of a buffer the closure itself produces is
                    # accumulator re-read traffic (write-through merge),
                    # not a dataflow input — schedule, not semantics
                    sources.add(_SOURCE_CLASSES.get(b, b))
    return tuple(sorted(sources)), findings


def normalize_plan(plan: Any) -> PlanNormalForm:
    """Canonicalize one plan into its dataflow normal form.

    Deterministic, side-effect free, and schedule-blind: every legal
    rewrite in :mod:`repro.opt.rewrites` maps a plan to another plan
    with a semantically identical normal form (possibly differing in
    ordering class only — that is EQ003's verdict, not EQ002's).
    """
    compute = plan.compute
    workload = compute.workload
    ordering, findings = _ordering_class(compute, workload)
    sources, flow_findings = _dataflow_sources(plan.ops)
    findings = list(findings) + flow_findings
    term = ProducerTerm(
        buffer="out",
        graph=workload.graph.fingerprint(),
        feature=owned_digest(workload, "X") or "",
        scale=_scale_term(workload),
        self_term=owned_digest(workload, "self_coeff"),
        reduce=workload.reduce,
        output_perm=owned_digest(compute, "output_perm"),
        sources=sources,
        ordering=ordering,
    )
    return PlanNormalForm(
        label=plan_label(plan), terms=(term,), findings=tuple(findings)
    )
