"""Vertex reordering — the pre-processing step GNNAdvisor relies on.

The paper criticizes this step as "heavy pre-processing" whose overhead can
exceed the kernel-time it saves.  We implement its degree sort; the
GNNAdvisor baseline's cost of the step is modeled in
:func:`repro.frameworks.gnnadvisor.preprocess_seconds`, never timed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = ["ReorderResult", "degree_sort"]


@dataclass(frozen=True)
class ReorderResult:
    """A relabelled graph plus the permutation that produced it."""

    graph: CSRGraph
    perm: np.ndarray  # new id of old vertex v is perm[v]
    strategy: str


def degree_sort(graph: CSRGraph, *, descending: bool = True) -> ReorderResult:
    """Relabel vertices by in-degree so similar workloads are adjacent.

    Groups vertices of similar degree into the same warps/blocks, which is
    the locality/balance effect GNNAdvisor's reordering targets.
    """
    deg = graph.in_degrees
    order = np.argsort(-deg if descending else deg, kind="stable")
    perm = np.empty(graph.num_vertices, dtype=np.int64)
    perm[order] = np.arange(graph.num_vertices)
    out = graph.permute(perm)
    return ReorderResult(
        graph=out,
        perm=perm,
        strategy="degree_sort",
    )
