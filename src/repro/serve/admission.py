"""Admission control: bounded in-system population with counted drops.

An open-loop arrival process has no intrinsic backpressure — if the
offered rate exceeds the service rate the queue grows without bound and
every latency percentile diverges.  The admission controller bounds the
*in-system* request count (admitted but not yet completed, i.e. waiting
in the batcher plus in flight on the device); arrivals beyond the bound
are shed immediately and counted, never silently dropped.  An arrival the
planner cannot serve at all (a target vertex outside the graph) is refused
before it is offered for admission, and counted apart from the shed ones.
The serving loop enforces the conservation law the property tests pin::

    arrived == admitted + shed + refused    (at every instant)
    admitted == completed                   (after drain)
"""

from __future__ import annotations

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-queue admission with shed accounting."""

    def __init__(self, *, queue_depth: int):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.queue_depth = queue_depth
        self.arrived = 0
        self.admitted = 0
        self.shed = 0
        self.refused = 0
        self.in_system = 0

    def try_admit(self) -> bool:
        """Offer one arrival; True = admitted, False = shed (counted)."""
        self.arrived += 1
        if self.in_system >= self.queue_depth:
            self.shed += 1
            return False
        self.admitted += 1
        self.in_system += 1
        return True

    def refuse(self) -> None:
        """Count one arrival that cannot be served; it takes no queue slot."""
        self.arrived += 1
        self.refused += 1

    def release(self, count: int = 1) -> None:
        """Mark ``count`` admitted requests completed."""
        if count < 0 or count > self.in_system:
            raise ValueError(
                f"release({count}) with {self.in_system} in system"
            )
        self.in_system -= count
