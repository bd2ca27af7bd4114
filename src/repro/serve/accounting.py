"""Latency accounting: per-request records → percentiles → obs metrics.

Latency here is *simulated* end-to-end time: request arrival → last
kernel of its batch finishes on the modeled device.  It decomposes as
batching wait (arrival → dispatch) plus device time (launch serialization
+ execution under contention); the accountant keeps both so experiments
can attribute p99 movements to the batching window vs device queueing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workload import Request

__all__ = ["CompletedRequest", "LatencyAccountant"]


@dataclass(frozen=True)
class CompletedRequest:
    """Lifecycle of one served request (simulated seconds)."""

    request: Request
    dispatch_s: float
    finish_s: float
    batch_size: int

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.request.arrival_s

    @property
    def wait_s(self) -> float:
        """Time spent in the batcher before dispatch."""
        return self.dispatch_s - self.request.arrival_s


class LatencyAccountant:
    """Accumulates completions and summarizes the latency distribution."""

    def __init__(self):
        self.records: list[CompletedRequest] = []

    def record(
        self,
        request: Request,
        *,
        dispatch_s: float,
        finish_s: float,
        batch_size: int,
    ) -> None:
        self.records.append(
            CompletedRequest(
                request=request,
                dispatch_s=dispatch_s,
                finish_s=finish_s,
                batch_size=batch_size,
            )
        )

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.records)

    def latencies_ms(self) -> np.ndarray:
        return np.array([r.latency_s * 1e3 for r in self.records])

    def percentile_ms(self, p: float) -> float:
        lat = self.latencies_ms()
        if lat.size == 0:
            return 0.0
        return float(np.percentile(lat, p))

    @property
    def mean_ms(self) -> float:
        return float(self.latencies_ms().mean()) if self.records else 0.0

    @property
    def avg_batch(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.batch_size for r in self.records]))

    @property
    def mean_wait_ms(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.wait_s for r in self.records])) * 1e3

    def span_s(self) -> float:
        """First arrival → last finish (throughput denominator)."""
        if not self.records:
            return 0.0
        first = min(r.request.arrival_s for r in self.records)
        last = max(r.finish_s for r in self.records)
        return last - first

    @property
    def throughput_rps(self) -> float:
        span = self.span_s()
        return self.completed / span if span > 0 else 0.0
