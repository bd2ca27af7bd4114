"""GPUSpec limits, device scaling, and occupancy computation."""

import numpy as np
import pytest

from repro.gpusim import (
    V100,
    GPUSpec,
    LaunchConfig,
    achieved_occupancy,
    block_slots,
    scaled_spec,
    theoretical_occupancy,
)
from repro.gpusim.occupancy import envelope_occupancy


class TestSpec:
    def test_v100_shape(self):
        assert V100.num_sms == 80
        assert V100.max_resident_warps == 80 * 64
        assert V100.sectors_per_line == 4

    def test_overrides(self):
        s = V100.with_overrides(num_sms=40)
        assert s.num_sms == 40
        assert V100.num_sms == 80  # original untouched

    def test_occupancy_limit_by_warps(self):
        # 1024-thread blocks = 32 warps -> 2 blocks fill 64 warp slots
        occ = envelope_occupancy(V100, threads_per_block=1024, regs_per_thread=32)
        assert occ.blocks_per_sm == 2

    def test_occupancy_limit_by_registers(self):
        # 128 regs/thread, 512 threads = 65536 regs = exactly one block
        occ = envelope_occupancy(V100, threads_per_block=512, regs_per_thread=128)
        assert occ.blocks_per_sm == 1

    def test_occupancy_limit_by_smem(self):
        occ = envelope_occupancy(
            V100, threads_per_block=64, regs_per_thread=16,
            shared_mem_per_block=48 * 1024,
        )
        assert occ.blocks_per_sm == 2

    def test_bad_threads(self):
        with pytest.raises(ValueError):
            envelope_occupancy(V100, threads_per_block=0)
        with pytest.raises(ValueError, match="exceeds device limit"):
            block_slots(LaunchConfig(num_blocks=1, threads_per_block=2048), V100)


class TestScaledSpec:
    def test_identity_at_full_scale(self):
        assert scaled_spec(V100, 1.0) is V100

    def test_throughput_scales(self):
        s = scaled_spec(V100, 0.25)
        assert s.num_sms == 20
        assert s.mem_bandwidth_bytes_per_s == pytest.approx(900e9 * 0.25)
        assert s.l2_bytes == int(V100.l2_bytes * 0.25)

    def test_host_costs_absolute(self):
        s = scaled_spec(V100, 0.125)
        assert s.kernel_launch_seconds == V100.kernel_launch_seconds
        assert s.framework_dispatch_seconds == V100.framework_dispatch_seconds

    def test_floors(self):
        s = scaled_spec(V100, 1 / 1024)
        assert s.num_sms >= 2
        assert s.l2_bytes >= 64 * 1024
        assert s.atomic_ops_per_cycle >= 2.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_spec(V100, 0.0)
        with pytest.raises(ValueError):
            scaled_spec(V100, 2.0)


class TestLaunchConfig:
    def test_warp_counts(self):
        lc = LaunchConfig(num_blocks=10, threads_per_block=128)
        assert lc.warps_per_block() == 4
        assert lc.num_warps() == 40
        assert lc.num_threads == 1280

    def test_validation(self):
        with pytest.raises(ValueError):
            LaunchConfig(num_blocks=0, threads_per_block=32)
        with pytest.raises(ValueError):
            LaunchConfig(num_blocks=1, threads_per_block=0)
        with pytest.raises(ValueError):
            LaunchConfig(num_blocks=1, threads_per_block=32, regs_per_thread=300)


class TestTheoreticalOccupancy:
    def test_full_occupancy(self):
        lc = LaunchConfig(num_blocks=10_000, threads_per_block=256, regs_per_thread=32)
        rep = theoretical_occupancy(lc, V100)
        assert rep.theoretical == 1.0

    def test_register_limited(self):
        lc = LaunchConfig(num_blocks=10_000, threads_per_block=256, regs_per_thread=128)
        rep = theoretical_occupancy(lc, V100)
        assert rep.limited_by == "registers"
        assert rep.theoretical < 1.0

    def test_small_grid_limited(self):
        lc = LaunchConfig(num_blocks=80, threads_per_block=64)
        rep = theoretical_occupancy(lc, V100)
        assert rep.limited_by == "grid_size"
        assert rep.warps_per_sm == 2

    def test_smem_limited(self):
        lc = LaunchConfig(
            num_blocks=10_000, threads_per_block=64, shared_mem_per_block=96 * 1024
        )
        rep = theoretical_occupancy(lc, V100)
        assert rep.limited_by == "shared_memory"
        assert rep.blocks_per_sm == 1


class TestAchievedOccupancy:
    def test_perfect_balance(self):
        # 5120 warps busy the whole makespan -> occupancy 1
        w = np.full(V100.max_resident_warps, 100.0)
        assert achieved_occupancy(w, 100.0, V100) == pytest.approx(1.0)

    def test_half_busy(self):
        w = np.full(V100.max_resident_warps, 50.0)
        assert achieved_occupancy(w, 100.0, V100) == pytest.approx(0.5)

    def test_imbalance_lowers_occupancy(self):
        balanced = np.full(1000, 10.0)
        skewed = np.zeros(1000)
        skewed[0] = 10_000.0
        occ_b = achieved_occupancy(balanced, 10.0 + 1, V100)
        occ_s = achieved_occupancy(skewed, 10_000.0, V100)
        assert occ_s < occ_b

    def test_zero_makespan(self):
        assert achieved_occupancy(np.array([1.0]), 0.0, V100) == 0.0

    def test_resident_limit_caps(self):
        w = np.full(V100.max_resident_warps, 100.0)
        assert achieved_occupancy(w, 100.0, V100, resident_limit=0.25) == 0.25
