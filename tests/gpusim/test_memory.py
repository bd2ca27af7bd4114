"""Sector math and cache model."""

import numpy as np
import pytest

from repro.gpusim import (
    SectorCache,
    cached_dram_sectors,
    scattered_rows_sectors,
    sectors_for_addresses,
)


class TestAddresses:
    def test_single_sector_broadcast(self):
        assert sectors_for_addresses(np.array([4]), 4) == 1

    def test_coalesced_32_lanes(self):
        addrs = np.arange(32) * 4
        assert sectors_for_addresses(addrs, 4) == 4  # 128B = 4 sectors

    def test_fully_scattered(self):
        addrs = np.arange(32) * 128
        assert sectors_for_addresses(addrs, 4) == 32

    def test_duplicates_collapse(self):
        assert sectors_for_addresses(np.array([0, 0, 4, 8]), 4) == 1

    def test_item_spanning_boundary(self):
        assert sectors_for_addresses(np.array([30]), 8) == 2

    def test_empty(self):
        assert sectors_for_addresses(np.array([]), 4) == 0


class TestPatternFormulas:
    def test_scattered_wide_rows(self):
        # rows >= one sector apart: every lane its own sector
        assert scattered_rows_sectors(32, 128) == 32
        assert scattered_rows_sectors(16, 64) == 16

    def test_scattered_narrow_rows_share(self):
        # rows of 16B: two lanes per sector
        assert scattered_rows_sectors(32, 16) == 16

    def test_formula_matches_exact_counting(self):
        # scattered formula == exact unique-sector count for row gathers
        for lanes in (1, 7, 16, 32):
            addrs = np.arange(lanes) * 256
            assert scattered_rows_sectors(lanes, 256) == sectors_for_addresses(
                addrs, 4
            )


class TestCachedDram:
    def test_all_unique_passthrough(self):
        assert cached_dram_sectors(100, 100, 6 << 20) == 100

    def test_small_working_set_mostly_hits(self):
        # 10 unique sectors (320B) reused 1000x with a big L2
        out = cached_dram_sectors(1000, 10, 6 << 20)
        assert out <= 10 + 1000 * 0.06

    def test_giant_working_set_mostly_misses(self):
        out = cached_dram_sectors(10_000_000, 5_000_000, 6 << 20)
        assert out > 0.9 * 10_000_000

    def test_zero(self):
        assert cached_dram_sectors(0, 10, 1 << 20) == 0
        assert cached_dram_sectors(10, 0, 1 << 20) == 0

    def test_unique_clamped_to_touches(self):
        assert cached_dram_sectors(5, 100, 1 << 20) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cached_dram_sectors(-1, 0, 1 << 20)

    def test_monotone_in_l2(self):
        small = cached_dram_sectors(100_000, 50_000, 64 << 10)
        big = cached_dram_sectors(100_000, 50_000, 32 << 20)
        assert big <= small


class TestSectorCache:
    def test_hit_after_miss(self):
        c = SectorCache(1024)
        assert not c.access(5)
        assert c.access(5)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction(self):
        c = SectorCache(2 * 32)  # two sectors
        c.access(1)
        c.access(2)
        c.access(3)  # evicts 1
        assert not c.access(1)

    def test_lru_touch_refreshes(self):
        c = SectorCache(2 * 32)
        c.access(1)
        c.access(2)
        c.access(1)  # refresh 1
        c.access(3)  # evicts 2
        assert c.access(1)

    def test_access_bytes_span(self):
        c = SectorCache(1024)
        hits, misses = c.access_bytes(0, 64)
        assert (hits, misses) == (0, 2)
        hits, misses = c.access_bytes(0, 64)
        assert (hits, misses) == (2, 0)

    def test_hit_rate(self):
        c = SectorCache(1024)
        assert c.hit_rate == 0.0
        c.access(0)
        c.access(0)
        assert c.hit_rate == 0.5
        c.reset_counters()
        assert c.hit_rate == 0.0

    def test_minimum_capacity(self):
        with pytest.raises(ValueError):
            SectorCache(16)

