"""Batcher triggers, admission bounds, and the conservation property.

The hypothesis property drives the *whole* service loop with a fake
planner over randomized traces and configs, asserting the invariants
ISSUE 2 pins: no request is ever dropped silently
(``arrived == admitted + shed + refused`` and ``admitted == completed``
after drain) and no emitted batch exceeds ``max_batch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.streams import StreamKernel
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.service import InferenceService, ServeConfig
from repro.serve.workload import Request, make_requests, poisson_trace


def R(rid, t=0.0):
    return Request(rid=rid, arrival_s=t)


class TestBatcher:
    def test_size_trigger(self):
        b = MicroBatcher(max_batch=3, window_s=1.0)
        for i in range(3):
            b.add(R(i), now_s=0.0)
        batches = b.pop_ready(0.0)
        assert [r.rid for r in batches[0]] == [0, 1, 2]
        assert b.num_pending == 0

    def test_deadline_trigger(self):
        b = MicroBatcher(max_batch=8, window_s=1e-3)
        b.add(R(0), now_s=0.0)
        assert b.pop_ready(5e-4) == []
        assert b.next_deadline_s() == pytest.approx(1e-3)
        (batch,) = b.pop_ready(1e-3)
        assert [r.rid for r in batch] == [0]

    def test_deadline_follows_oldest(self):
        b = MicroBatcher(max_batch=8, window_s=1e-3)
        b.add(R(0), now_s=0.0)
        b.add(R(1), now_s=5e-4)
        assert b.next_deadline_s() == pytest.approx(1e-3)
        (batch,) = b.pop_ready(1e-3)
        assert len(batch) == 2  # the partial batch takes every waiter

    def test_size_trigger_splits_backlog(self):
        b = MicroBatcher(max_batch=2, window_s=10.0)
        for i in range(5):
            b.add(R(i), now_s=0.0)
        batches = b.pop_ready(0.0)
        assert [len(x) for x in batches] == [2, 2]
        assert b.num_pending == 1

    def test_flush_chunks(self):
        b = MicroBatcher(max_batch=2, window_s=10.0)
        for i in range(3):
            b.add(R(i), now_s=0.0)
        b.pop_ready(0.0)
        b.add(R(3), now_s=0.0)
        assert [len(x) for x in b.flush()] == [2]
        assert b.num_pending == 0

    def test_separate_compat_classes(self):
        b = MicroBatcher(max_batch=2, window_s=10.0)
        b.add(R(0), now_s=0.0)
        b.add(Request(rid=1, arrival_s=0.0, job="targets", targets=(4,)), now_s=0.0)
        assert b.pop_ready(0.0) == []  # neither class reached max_batch
        assert b.num_pending == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0, window_s=0.0)
        with pytest.raises(ValueError, match="window_s"):
            MicroBatcher(max_batch=1, window_s=-1.0)


class TestAdmission:
    def test_bounds_in_system(self):
        a = AdmissionController(queue_depth=2)
        assert a.try_admit() and a.try_admit()
        assert not a.try_admit()  # shed
        assert (a.arrived, a.admitted, a.shed) == (3, 2, 1)
        a.release(1)
        assert a.try_admit()
        assert a.arrived == a.admitted + a.shed

    def test_refused_arrival_counted_apart_and_takes_no_slot(self):
        a = AdmissionController(queue_depth=1)
        a.refuse()
        assert (a.arrived, a.admitted, a.shed, a.refused) == (1, 0, 0, 1)
        assert a.try_admit()  # the refused arrival held no slot
        assert a.arrived == a.admitted + a.shed + a.refused

    def test_release_validated(self):
        a = AdmissionController(queue_depth=2)
        a.try_admit()
        with pytest.raises(ValueError, match="release"):
            a.release(2)

    def test_depth_validated(self):
        with pytest.raises(ValueError, match="queue_depth"):
            AdmissionController(queue_depth=0)


class FakePlanner:
    """Deterministic stand-in: one kernel per batch, cost ∝ batch size."""

    label = "fake"

    def __init__(self, kernel_seconds=1e-4, launch_seconds=1e-5):
        self.kernel_seconds = kernel_seconds
        self.launch_seconds = launch_seconds
        self.batch_sizes: list[int] = []

    def plan(self, batch):
        self.batch_sizes.append(len(batch))
        return [
            StreamKernel(
                name=f"fake_b{len(self.batch_sizes)}",
                comp_seconds=self.kernel_seconds * len(batch),
                mem_seconds=0.0,
                launch_seconds=self.launch_seconds,
            )
        ]


class TestConservationProperty:
    @given(
        num_requests=st.integers(min_value=0, max_value=60),
        rate_hz=st.floats(min_value=50.0, max_value=50_000.0),
        max_batch=st.integers(min_value=1, max_value=5),
        window_us=st.floats(min_value=0.0, max_value=500.0),
        queue_depth=st.integers(min_value=1, max_value=8),
        num_streams=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_silent_drops_and_bounded_batches(
        self, num_requests, rate_hz, max_batch, window_us, queue_depth,
        num_streams, seed,
    ):
        cfg = ServeConfig(
            rate_hz=rate_hz,
            num_requests=num_requests,
            max_batch=max_batch,
            window_s=window_us * 1e-6,
            num_streams=num_streams,
            queue_depth=queue_depth,
            seed=seed,
        )
        planner = FakePlanner()
        requests = make_requests(
            poisson_trace(rate_hz, num_requests, seed=seed)
        )
        report = InferenceService(planner, cfg).run(requests)
        # conservation: nothing dropped silently
        assert report.arrived == num_requests
        assert report.refused == 0  # the fake planner serves everything
        assert report.arrived == report.admitted + report.shed
        assert report.admitted == report.completed
        # batch bound: never exceeds the configured max
        assert all(1 <= b <= max_batch for b in planner.batch_sizes)
        assert sum(planner.batch_sizes) == report.completed

    def test_overload_sheds_counted(self):
        # offered rate far above service rate with a tiny queue: shedding
        # must kick in, and every shed request is counted.
        planner = FakePlanner(kernel_seconds=1e-2)
        cfg = ServeConfig(
            rate_hz=10_000.0, num_requests=50, max_batch=1, window_s=0.0,
            num_streams=1, queue_depth=2, seed=0,
        )
        requests = make_requests(poisson_trace(10_000.0, 50, seed=0))
        report = InferenceService(planner, cfg).run(requests)
        assert report.shed > 0
        assert report.arrived == report.admitted + report.shed == 50
        assert report.admitted == report.completed

    def test_latencies_monotone_with_batching_window(self):
        # at light load a longer window only adds waiting: mean latency grows
        requests = make_requests(poisson_trace(100.0, 30, seed=1))
        means = []
        for window in (0.0, 5e-3):
            cfg = ServeConfig(
                rate_hz=100.0, num_requests=30, max_batch=8,
                window_s=window, num_streams=1, queue_depth=64, seed=1,
            )
            report = InferenceService(FakePlanner(), cfg).run(requests)
            means.append(report.mean_ms)
        assert means[1] > means[0]

    def test_report_deterministic(self):
        requests = make_requests(poisson_trace(2_000.0, 40, seed=9))
        cfg = ServeConfig(rate_hz=2_000.0, num_requests=40, seed=9)
        a = InferenceService(FakePlanner(), cfg).run(requests)
        b = InferenceService(FakePlanner(), cfg).run(requests)
        np.testing.assert_array_equal(
            a.accountant.latencies_ms(), b.accountant.latencies_ms()
        )
        assert a.p99_ms == b.p99_ms
