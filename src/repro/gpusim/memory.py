"""Memory-system math: sector/coalescing analysis and a small cache model.

The GPU memory controller services warp-level requests in 32-byte sectors;
how many sectors one request touches is exactly the "sector per request"
metric the paper profiles (Table 2).  The functions here compute sector
counts for the access patterns the kernels use, both analytically
(vectorized, used at scale) and from raw addresses (used by the
micro-simulator to validate the analytical formulas).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = [
    "sectors_for_addresses",
    "scattered_rows_sectors",
    "cached_dram_sectors",
    "SectorCache",
]


def sectors_for_addresses(addresses: np.ndarray, itemsize: int, sector_bytes: int = 32) -> int:
    """Distinct sectors touched by one warp request at given byte addresses.

    ``addresses`` are the per-lane starting byte addresses; each lane reads
    ``itemsize`` bytes.  This is the exact computation the micro-simulator
    performs per request.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return 0
    firsts = addresses // sector_bytes
    lasts = (addresses + itemsize - 1) // sector_bytes
    if np.all(firsts == lasts):
        return int(np.unique(firsts).size)
    spans = np.concatenate(
        [np.arange(f, l + 1) for f, l in zip(firsts, lasts, strict=True)]
    )
    return int(np.unique(spans).size)


def scattered_rows_sectors(
    active_lanes: int, row_stride_bytes: int, itemsize: int = 4, sector_bytes: int = 32
) -> int:
    """Sectors for one warp request where each lane reads one item from a
    *different* feature row (the thread-per-vertex anti-pattern, Fig 3a).

    If rows are at least a sector apart the lanes hit ``active_lanes``
    distinct sectors (worst case); with tiny rows several lanes may share a
    sector.
    """
    if active_lanes <= 0:
        return 0
    if row_stride_bytes >= sector_bytes:
        return active_lanes
    lanes_per_sector = max(sector_bytes // max(row_stride_bytes, itemsize), 1)
    return -(-active_lanes // lanes_per_sector)


def cached_dram_sectors(
    touches: int, unique_sectors: int, l2_bytes: int, *, sector_bytes: int = 32,
    max_hit: float = 0.95,
) -> int:
    """DRAM sectors after L2 filtering of a random-gather access stream.

    ``touches`` sector accesses hit ``unique_sectors`` distinct sectors;
    every distinct sector misses at least once, and repeat accesses hit with
    probability ~ ``l2_capacity / working_set`` (capped).  This captures the
    neighbour-feature reuse real GNN kernels get from L2 — without it the
    modeled traffic of gather-heavy kernels would overshoot the paper's
    measurements by the reuse factor.
    """
    if touches < 0 or unique_sectors < 0:
        raise ValueError("counts must be non-negative")
    if touches == 0 or unique_sectors == 0:
        return 0
    unique_sectors = min(unique_sectors, touches)
    working_bytes = unique_sectors * sector_bytes
    hit = min(max_hit, l2_bytes / working_bytes)
    repeats = touches - unique_sectors
    return int(round(unique_sectors + repeats * (1.0 - hit)))


class SectorCache:
    """Tiny LRU sector cache used by the micro-simulator for L1/L2 hit rates.

    Tracks hits/misses at sector granularity.  ``capacity_bytes`` rounds down
    to whole sectors.
    """

    def __init__(self, capacity_bytes: int, sector_bytes: int = 32) -> None:
        if capacity_bytes < sector_bytes:
            raise ValueError("cache must hold at least one sector")
        self.sector_bytes = sector_bytes
        self.capacity = capacity_bytes // sector_bytes
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, sector_id: int) -> bool:
        """Access one sector; returns True on hit."""
        if sector_id in self._lru:
            self._lru.move_to_end(sector_id)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[sector_id] = None
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return False

    def access_bytes(self, address: int, nbytes: int) -> tuple[int, int]:
        """Access a byte span; returns (hit_sectors, miss_sectors)."""
        if nbytes <= 0:
            return (0, 0)
        first = address // self.sector_bytes
        last = (address + nbytes - 1) // self.sector_bytes
        hits = sum(self.access(s) for s in range(first, last + 1))
        total = last - first + 1
        return hits, total - hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
