"""Vectorized synthetic graph generators.

The paper evaluates on real datasets; with no network access we synthesize
graphs that preserve the statistics the paper's claims depend on: vertex
count, edge count / average degree, and degree skew.  All generators are
deterministic given ``seed`` and produce in-neighbour :class:`CSRGraph`.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, from_edge_list

__all__ = [
    "rng_from",
    "make_features",
    "erdos_renyi",
    "erdos_renyi_edges",
    "power_law",
    "regular_edges",
    "star",
    "chain",
    "complete",
    "empty",
]


def rng_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Canonical seed → :class:`numpy.random.Generator` coercion.

    Accepts an int seed, an existing generator (passed through, so callers
    can thread one stream through several draws), or None (OS entropy —
    never use None on a simulated path; see DESIGN.md "Determinism rules").
    Shared by every graph generator here and by the serving layer's
    arrival-trace generators (:mod:`repro.serve.workload`), so one seed
    convention covers all synthetic randomness in the repo.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: back-compat alias (pre-serving internal name)
_rng = rng_from


def make_features(n: int, feat_dim: int, *, seed: int = 0) -> np.ndarray:
    """Random float32 features, as the paper initializes its inputs.

    The one feature recipe: the bench harness and the serving layer's
    :class:`~repro.serve.ServableModel` both draw their inputs here.
    """
    return rng_from(seed).standard_normal((n, feat_dim), dtype=np.float32)


def erdos_renyi_edges(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int | np.random.Generator | None = 0,
    allow_self_loops: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(src, dst)`` arrays of :func:`erdos_renyi`, before the CSR."""
    rng = _rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    if not allow_self_loops and num_vertices > 1:
        loops = src == dst
        # Rotate self-loop targets by one; keeps |E| fixed and stays uniform
        # enough for our purposes.
        dst[loops] = (dst[loops] + 1) % num_vertices
    return src, dst


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int | None = 0,
    allow_self_loops: bool = False,
    name: str = "erdos_renyi",
) -> CSRGraph:
    """Uniform random directed multigraph with exactly ``num_edges`` edges."""
    src, dst = erdos_renyi_edges(
        num_vertices, num_edges, seed=seed, allow_self_loops=allow_self_loops
    )
    return from_edge_list(src, dst, num_vertices, name=name)


def power_law(
    num_vertices: int,
    num_edges: int,
    *,
    exponent: float = 2.1,
    max_degree: int | None = None,
    seed: int | None = 0,
    name: str = "power_law",
) -> CSRGraph:
    """Directed graph whose in-degrees follow a truncated power law.

    Destination vertices are sampled proportionally to ``rank^-1/(exponent-1)``
    (Zipf-like), giving the heavy-tailed degree distribution that makes
    vertex-parallel workloads imbalanced — the property the paper's hybrid
    workload balancing targets.  ``max_degree`` caps the *expected* degree of
    the hottest vertex so scaled-down stand-ins keep the hub share of the
    original dataset instead of over-concentrating.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1")
    rng = _rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights /= weights.sum()
    if max_degree is not None and num_edges > 0:
        cap = max_degree / num_edges
        for _ in range(4):  # cap-and-renormalize until stable
            over = weights > cap
            if not over.any():
                break
            weights = np.minimum(weights, cap)
            weights /= weights.sum()
    dst = rng.choice(num_vertices, size=num_edges, p=weights).astype(np.int64)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    if num_vertices > 1:
        loops = src == dst
        src[loops] = (src[loops] + 1) % num_vertices
    # Shuffle vertex ids so the hubs are not the low ids; keeps locality
    # effects realistic for the reordering experiments.
    perm = rng.permutation(num_vertices).astype(np.int64)
    return from_edge_list(perm[src], perm[dst], num_vertices, name=name)


def regular_edges(
    num_vertices: int,
    degree: int,
    *,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` arrays in which every vertex has exactly ``degree``
    in-neighbours (random sources, no self loops)."""
    rng = _rng(seed)
    dst = np.repeat(np.arange(num_vertices, dtype=np.int64), degree)
    src = rng.integers(0, num_vertices, size=num_vertices * degree, dtype=np.int64)
    if num_vertices > 1:
        loops = src == dst
        src[loops] = (src[loops] + 1) % num_vertices
    return src, dst


def star(num_vertices: int, *, name: str = "star") -> CSRGraph:
    """All other vertices point at vertex 0 — maximal degree skew."""
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    src = np.arange(1, num_vertices, dtype=np.int64)
    dst = np.zeros(num_vertices - 1, dtype=np.int64)
    return from_edge_list(src, dst, num_vertices, name=name)


def chain(num_vertices: int, *, name: str = "chain") -> CSRGraph:
    """Path graph i -> i+1 — perfectly balanced degree-1 workload."""
    src = np.arange(0, num_vertices - 1, dtype=np.int64)
    dst = src + 1
    return from_edge_list(src, dst, num_vertices, name=name)


def complete(num_vertices: int, *, name: str = "complete") -> CSRGraph:
    """Complete directed graph without self loops."""
    v = np.arange(num_vertices, dtype=np.int64)
    src = np.repeat(v, num_vertices)
    dst = np.tile(v, num_vertices)
    keep = src != dst
    return from_edge_list(src[keep], dst[keep], num_vertices, name=name)


def empty(num_vertices: int, *, name: str = "empty") -> CSRGraph:
    """Graph with no edges (kernel edge-case exercise)."""
    return CSRGraph(
        indptr=np.zeros(num_vertices + 1, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int64),
        num_vertices=num_vertices,
        name=name,
    )
