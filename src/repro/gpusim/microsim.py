"""Exact warp-level trace simulator (validation tier).

At small scale we can afford to step every warp of a kernel and count real
memory transactions from real byte addresses.  The kernels' vectorized
``analyze()`` formulas are validated against these counts in the test
suite, which keeps the large-scale analytical model honest.

The simulator exposes warp-level request primitives; kernel modules provide
``trace(graph, feat_dim, sim)`` functions that replay their access pattern
through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GPUSpec
from .memory import SectorCache, sectors_for_addresses

__all__ = ["AddressMap", "MicroSim"]


def _align_up(x: int, align: int) -> int:
    return -(-x // align) * align


@dataclass(frozen=True)
class AddressMap:
    """Byte layout of the kernel's device arrays.

    All arrays are 128-byte aligned, feature/output rows are ``4*feat_dim``
    bytes, index elements are 4 bytes (CUDA ``int``), matching the layout
    the analytical formulas assume.
    """

    num_vertices: int
    num_edges: int
    feat_dim: int
    feat_base: int
    out_base: int
    indptr_base: int
    indices_base: int
    edge_val_base: int
    itemsize: int = 4

    @classmethod
    def create(
        cls, num_vertices: int, num_edges: int, feat_dim: int, *, align: int = 128
    ) -> "AddressMap":
        feat_base = 0
        row = 4 * feat_dim
        out_base = _align_up(feat_base + num_vertices * row, align)
        indptr_base = _align_up(out_base + num_vertices * row, align)
        indices_base = _align_up(indptr_base + 4 * (num_vertices + 1), align)
        edge_val_base = _align_up(indices_base + 4 * num_edges, align)
        return cls(
            num_vertices=num_vertices,
            num_edges=num_edges,
            feat_dim=feat_dim,
            feat_base=feat_base,
            out_base=out_base,
            indptr_base=indptr_base,
            indices_base=indices_base,
            edge_val_base=edge_val_base,
        )

    # address helpers ---------------------------------------------------
    def feat_addr(self, vertex, dim=0):
        return self.feat_base + (np.asarray(vertex) * self.feat_dim + dim) * 4

    def out_addr(self, vertex, dim=0):
        return self.out_base + (np.asarray(vertex) * self.feat_dim + dim) * 4

    def indptr_addr(self, i):
        return self.indptr_base + np.asarray(i) * 4

    def indices_addr(self, i):
        return self.indices_base + np.asarray(i) * 4

    def edge_val_addr(self, i):
        return self.edge_val_base + np.asarray(i) * 4


@dataclass
class MicroSim:
    """Transaction counter fed by warp-level request primitives."""

    spec: GPUSpec = field(default_factory=GPUSpec)
    l1: SectorCache | None = None

    load_sectors: int = 0
    store_sectors: int = 0
    atomic_sectors: int = 0
    load_requests: int = 0
    store_requests: int = 0
    atomic_requests: int = 0
    atomic_ops: int = 0
    instructions: int = 0
    divergent_lanes: int = 0
    #: sectors the same requests would touch if each one's live lanes read
    #: consecutive elements — the coalesced floor the lane count allows
    dense_sectors: int = 0

    def with_l1(self) -> "MicroSim":
        """Enable the L1 sector cache (hit counting only; DRAM-sector
        counters still report pre-cache transactions so they stay comparable
        with the analytical formulas)."""
        self.l1 = SectorCache(self.spec.l1_bytes, self.spec.sector_bytes)
        return self

    # ------------------------------------------------------------------
    def _count(self, addresses: np.ndarray, itemsize: int) -> int:
        addresses = np.atleast_1d(np.asarray(addresses, dtype=np.int64))
        if addresses.size > self.spec.threads_per_warp:
            raise ValueError("a warp request carries at most 32 lane addresses")
        n = sectors_for_addresses(addresses, itemsize, self.spec.sector_bytes)
        self.dense_sectors += -(-addresses.size * itemsize // self.spec.sector_bytes)
        if self.l1 is not None:
            firsts = addresses // self.spec.sector_bytes
            lasts = (addresses + itemsize - 1) // self.spec.sector_bytes
            for f, l in zip(firsts, lasts, strict=True):
                for s in range(int(f), int(l) + 1):
                    self.l1.access(s)
        return n

    def warp_load(self, addresses, itemsize: int = 4) -> None:
        """One warp-level load request at the given per-lane byte addresses."""
        self.load_requests += 1
        self.load_sectors += self._count(addresses, itemsize)

    def warp_store(self, addresses, itemsize: int = 4) -> None:
        self.store_requests += 1
        self.store_sectors += self._count(addresses, itemsize)

    def warp_atomic(self, addresses, itemsize: int = 4) -> None:
        """One warp-level atomic RMW request; each lane address is one op."""
        addresses = np.atleast_1d(np.asarray(addresses, dtype=np.int64))
        self.atomic_requests += 1
        self.atomic_ops += int(addresses.size)
        self.atomic_sectors += self._count(addresses, itemsize)

    def issue(self, n: int = 1) -> None:
        """Count ``n`` warp-wide arithmetic instructions."""
        self.instructions += n

    def diverge(self, idle_lanes: int) -> None:
        """Record idle lanes in a divergent warp-instruction."""
        self.divergent_lanes += idle_lanes

    # ------------------------------------------------------------------
    @property
    def total_sectors(self) -> int:
        return self.load_sectors + self.store_sectors + self.atomic_sectors

    @property
    def total_requests(self) -> int:
        return self.load_requests + self.store_requests + self.atomic_requests

    @property
    def sectors_per_request(self) -> float:
        return self.total_sectors / self.total_requests if self.total_requests else 0.0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1.hit_rate if self.l1 is not None else 0.0
