"""Atomic-operation cost model.

Atomic read-modify-write traffic is the villain of the paper's Observation I:
push / edge-centric / GNNAdvisor all scatter per-edge partial results with
``atomicAdd``, turning parallel updates into serialized L2 transactions.
This module estimates (a) how many atomic ops a scatter pattern issues,
(b) the expected same-address collision rate, and (c) the serialization
cycles those collisions cost.
"""

from __future__ import annotations

import numpy as np

from .config import GPUSpec

__all__ = [
    "scatter_collision_rate",
    "atomic_serialization_cycles",
]


def scatter_collision_rate(in_degrees: np.ndarray, window: int = 32) -> float:
    """Expected fraction of atomic updates that collide on a hot address.

    When edges update destination features concurrently, two updates to the
    same destination inside one scheduling window serialize.  For a vertex
    of in-degree ``d`` whose ``d`` updates land across the kernel, the chance
    any given update shares its window with another update to the same
    address grows as ``d / (d + window)``.  We take the edge-weighted mean,
    which makes hub-heavy graphs (Reddit-like) collide almost always and
    near-regular sparse graphs rarely — matching the paper's observation
    that atomics hurt most on skewed, dense graphs.
    """
    deg = np.asarray(in_degrees, dtype=np.float64)
    total = deg.sum()
    if total <= 0:
        return 0.0
    per_vertex = deg / (deg + float(window))
    return float((per_vertex * deg).sum() / total)


def atomic_serialization_cycles(
    n_ops: int, collision_rate: float, spec: GPUSpec
) -> float:
    """Total extra cycles serialization adds for ``n_ops`` atomic operations."""
    if n_ops <= 0:
        return 0.0
    if not 0.0 <= collision_rate <= 1.0:
        raise ValueError("collision_rate must be in [0, 1]")
    base = n_ops * spec.cycles_per_atomic
    contended = base * collision_rate * (spec.atomic_contention_factor - 1.0)
    return float(base + contended)
