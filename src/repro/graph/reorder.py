"""Vertex reordering — the pre-processing step GNNAdvisor relies on.

The paper criticizes this step as "heavy pre-processing" whose overhead can
exceed the kernel-time it saves.  We implement the two classic strategies
(degree sort and BFS locality ordering); the GNNAdvisor baseline's cost of
the step is modeled in :func:`repro.frameworks.gnnadvisor.preprocess_seconds`,
never timed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = ["ReorderResult", "degree_sort", "bfs_locality", "identity_order"]


@dataclass(frozen=True)
class ReorderResult:
    """A relabelled graph plus the permutation that produced it."""

    graph: CSRGraph
    perm: np.ndarray  # new id of old vertex v is perm[v]
    strategy: str


def identity_order(graph: CSRGraph) -> ReorderResult:
    """No-op ordering (TLPGNN's choice: zero pre-processing)."""
    return ReorderResult(
        graph=graph,
        perm=np.arange(graph.num_vertices, dtype=np.int64),
        strategy="identity",
    )


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


def bfs_locality(graph: CSRGraph, *, source: int = 0) -> ReorderResult:
    """Relabel vertices in BFS discovery order from ``source``.

    Vertices sharing neighbours get nearby ids, improving cache locality of
    the gather — the "make the ones sharing more common neighbors closer"
    pre-processing the paper describes.  Unreached vertices keep their
    relative order after all reached ones.
    """
    n = graph.num_vertices
    # BFS over the undirected closure so disconnected direction doesn't stop
    # the frontier; use the symmetrized adjacency.
    sym = graph.to_scipy()
    sym = (sym + sym.T).tocsr()
    order = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    pos = 0
    frontier = np.array([source], dtype=np.int64)
    visited[source] = True
    while len(frontier):
        order[pos : pos + len(frontier)] = frontier
        pos += len(frontier)
        # Vectorized frontier expansion via the CSR of the symmetric graph.
        starts = sym.indptr[frontier]
        ends = sym.indptr[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        nbrs = np.concatenate(
            [sym.indices[s:e] for s, e in zip(starts, ends, strict=True)]
        ) if total else np.zeros(0, dtype=np.int64)
        nbrs = np.unique(nbrs)
        nbrs = nbrs[~visited[nbrs]]
        visited[nbrs] = True
        frontier = nbrs
    if pos < n:
        rest = np.flatnonzero(~np.isin(np.arange(n), order[:pos]))
        order[pos:] = rest
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n)
    out = graph.permute(perm)
    return ReorderResult(
        graph=out,
        perm=perm,
        strategy="bfs_locality",
    )
