"""Heterogeneous graphs — the paper's limitation #1, implemented.

"Our method is designed for GNN models on homogeneous graphs ... However,
our designs for the kernel is generic and should be also applicable to the
GNN models on heterogeneous graphs with reasonable modifications."

The reasonable modification: a heterogeneous graph is a dict of per-relation
homogeneous CSR graphs over a shared vertex space; an R-GCN-style
convolution runs the (unchanged) TLPGNN kernel once per relation and sums
the per-relation aggregates — still atomic-free, still one fused kernel per
relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRGraph, from_edge_list

__all__ = ["HeteroGraph", "random_hetero"]


@dataclass(frozen=True)
class HeteroGraph:
    """Typed-edge graph: one CSR adjacency per relation, shared vertices."""

    num_vertices: int
    relations: dict[str, CSRGraph] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.relations:
            raise ValueError("need at least one relation")
        for name, g in self.relations.items():
            if g.num_vertices != self.num_vertices:
                raise ValueError(
                    f"relation {name!r} has {g.num_vertices} vertices, "
                    f"expected {self.num_vertices}"
                )

    @property
    def relation_names(self) -> list[str]:
        return list(self.relations)

    @property
    def num_edges(self) -> int:
        return sum(g.num_edges for g in self.relations.values())

    def merged(self) -> CSRGraph:
        """Union of all relations as one homogeneous graph (type-blind)."""
        srcs, dsts = [], []
        for g in self.relations.values():
            s, d = g.edge_list()
            srcs.append(s)
            dsts.append(d)
        return from_edge_list(
            np.concatenate(srcs), np.concatenate(dsts), self.num_vertices,
            name="hetero_merged",
        )


def random_hetero(
    num_vertices: int,
    edges_per_relation: dict[str, int],
    *,
    seed: int = 0,
) -> HeteroGraph:
    """Random heterogeneous graph with the given per-relation edge counts."""
    from .generators import erdos_renyi

    rng = np.random.default_rng(seed)
    rels = {
        name: erdos_renyi(
            num_vertices, m, seed=int(rng.integers(0, 2**31)), name=name
        )
        for name, m in edges_per_relation.items()
    }
    return HeteroGraph(num_vertices=num_vertices, relations=rels)
