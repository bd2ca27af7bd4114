"""Compressed sparse row graph container.

The whole reproduction operates on an in-neighbour CSR view: for a
destination vertex ``u``, ``indices[indptr[u]:indptr[u+1]]`` lists the
source vertices whose features ``u`` gathers during graph convolution.
This mirrors the ``indptr[des_v]`` indexing in the paper's Figure 7 code.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from ..identity import array_digest

__all__ = ["CSRGraph", "from_edge_list"]

#: largest vertex count :func:`from_edge_list` accepts: its sort key
#: ``dst * num_vertices + src`` reaches ``num_vertices**2 - 1``, which fits
#: int64 up to ``isqrt(2**63 - 1)``
MAX_VERTICES = 3_037_000_499


@dataclass(frozen=True)
class CSRGraph:
    """Immutable directed graph in CSR (in-neighbour) form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; row pointer of the
        in-adjacency of each destination vertex.
    indices:
        ``int64`` array of length ``num_edges``; the source vertex of each
        edge, grouped by destination.
    num_vertices:
        Number of vertices.
    name:
        Optional human-readable label (dataset abbreviation in tables).
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_vertices: int
    name: str = "graph"
    _degree_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if len(indptr) != self.num_vertices + 1:
            raise ValueError(
                f"indptr length {len(indptr)} != num_vertices+1 "
                f"({self.num_vertices + 1})"
            )
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indptr[-1] != len(indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (
            indices.min() < 0 or indices.max() >= self.num_vertices
        ):
            raise ValueError("indices contain out-of-range vertex ids")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges (gather operations)."""
        return int(self.indices.shape[0])

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (length ``num_vertices``)."""
        if "in" not in self._degree_cache:
            self._degree_cache["in"] = np.diff(self.indptr)
        return self._degree_cache["in"]

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (length ``num_vertices``)."""
        if "out" not in self._degree_cache:
            self._degree_cache["out"] = np.bincount(
                self.indices, minlength=self.num_vertices
            ).astype(np.int64)
        return self._degree_cache["out"]

    @property
    def avg_degree(self) -> float:
        """Average in-degree, the quantity the paper's heuristics use."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    @property
    def max_degree(self) -> int:
        return int(self.in_degrees.max(initial=0))

    def neighbors(self, v: int) -> np.ndarray:
        """In-neighbours of vertex ``v`` (a view, not a copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def fingerprint(self, values: np.ndarray | None = None) -> str:
        """Content sha256 over the CSR arrays (memoized on the instance).

        Identifies the graph by *structure*, not by name: two loads of the
        same dataset (or two aliased configs) fingerprint identically.
        ``values`` optionally folds a per-edge value array into the hash
        (edge weights live in workloads, not in the graph itself).
        """
        if values is not None:
            values = np.asarray(values)
            if values.shape[:1] != (self.num_edges,):
                raise ValueError("values must have one entry per edge")
            return array_digest(values, graph=self)
        fp = self._degree_cache.get("fingerprint")
        if fp is None:
            h = hashlib.sha256()
            h.update(np.int64(self.num_vertices).tobytes())
            h.update(self.indptr.tobytes())
            h.update(self.indices.tobytes())
            fp = self._degree_cache["fingerprint"] = h.hexdigest()
        return fp

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_scipy(self, weights: np.ndarray | None = None) -> sp.csr_matrix:
        """Return the adjacency as a ``scipy.sparse.csr_matrix``.

        Row ``u`` holds the in-neighbours of ``u``, so ``A @ X`` performs the
        pull-style gather-sum the kernels implement.
        """
        data = (
            np.ones(self.num_edges, dtype=np.float32)
            if weights is None
            else np.asarray(weights, dtype=np.float32)
        )
        if data.shape != (self.num_edges,):
            raise ValueError("weights must have one entry per edge")
        return sp.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()),
            shape=(self.num_vertices, self.num_vertices),
        )

    def reverse(self) -> "CSRGraph":
        """Graph with all edges flipped (out-neighbour CSR of this one)."""
        rev = self.to_scipy().T.tocsr()
        rev.sort_indices()
        return CSRGraph(
            indptr=rev.indptr.astype(np.int64),
            indices=rev.indices.astype(np.int64),
            num_vertices=self.num_vertices,
            name=f"{self.name}_rev",
        )

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays in CSR order (dst-major)."""
        dst = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.in_degrees)
        return self.indices.copy(), dst

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices so new id of old vertex ``v`` is ``perm[v]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.num_vertices,):
            raise ValueError("perm must have one entry per vertex")
        if not np.array_equal(np.sort(perm), np.arange(self.num_vertices)):
            raise ValueError("perm must be a permutation of vertex ids")
        src, dst = self.edge_list()
        return from_edge_list(
            perm[src], perm[dst], self.num_vertices, name=f"{self.name}_perm"
        )

    def induced_in_edges(
        self, targets: np.ndarray, *, name: str
    ) -> tuple["CSRGraph", np.ndarray]:
        """The in-edges of ``targets``, over the vertices they touch.

        Keeps every edge ``u -> t`` with ``t`` among the deduplicated
        ``targets``.  ``vertices`` is targets ∪ their sources in ascending
        id order, and vertex ``vertices[i]`` becomes ``i``.  Returns
        ``(subgraph, vertices)``; an id outside ``[0, num_vertices)`` raises
        ``ValueError``.
        """
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        bad = targets[(targets < 0) | (targets >= self.num_vertices)]
        if bad.size:
            raise ValueError(
                f"target ids {bad.tolist()} outside [0, {self.num_vertices})"
            )
        starts = self.indptr[targets]
        counts = self.indptr[targets + 1] - starts
        # CSR row gather without a Python loop over targets
        offsets = np.cumsum(counts) - counts
        rows = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
        src = self.indices[rows]
        vertices = np.union1d(targets, src)
        sub = from_edge_list(
            np.searchsorted(vertices, src),
            np.repeat(np.searchsorted(vertices, targets), counts),
            vertices.size,
            name=name,
        )
        return sub, vertices

    def stats(self) -> dict:
        """Summary statistics used by Table 4 and the hybrid heuristic."""
        deg = self.in_degrees
        return {
            "name": self.name,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "avg_degree": self.avg_degree,
            "max_degree": self.max_degree,
            "degree_std": float(deg.std()) if len(deg) else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, avg_deg={self.avg_degree:.1f})"
        )


def from_edge_list(
    src: Iterable[int],
    dst: Iterable[int],
    num_vertices: int,
    *,
    name: str = "graph",
    dedup: bool = False,
) -> CSRGraph:
    """Build an in-neighbour CSR graph from parallel ``src``/``dst`` arrays.

    One sort of the int64 key ``dst * num_vertices + src`` puts the edges
    in (dst, src) order.  Equal keys are equal edges, so the arrays do not
    depend on the sort algorithm; ``dedup`` keeps one copy of each edge.
    """
    if num_vertices > MAX_VERTICES:
        raise ValueError(
            f"num_vertices {num_vertices} exceeds {MAX_VERTICES}: the "
            "(dst, src) sort key would overflow int64"
        )
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same length")
    if len(src) and (
        min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_vertices
    ):
        raise ValueError("edge endpoints out of range")
    key = dst * num_vertices + src
    if dedup:
        key = np.unique(key)
        dst = key // num_vertices
    else:
        key = np.sort(key)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=num_vertices), out=indptr[1:])
    return CSRGraph(
        indptr=indptr,
        indices=key % num_vertices,
        num_vertices=num_vertices,
        name=name,
    )
