"""Concurrent kernel execution on CUDA-like streams (serving tier).

The offline cost model times one kernel at a time: a kernel owns the whole
device and finishes in ``gpu_seconds = max(compute-side, memory-side)``.
Online inference breaks that assumption — several micro-batches are
resident at once, each on its own stream, sharing SM issue bandwidth and
DRAM bandwidth.  This module adds that missing axis as an *online*
discrete-event simulator with a fluid (processor-sharing) service model:

* A :class:`StreamKernel` carries two demands, both in device-seconds when
  run alone: ``comp_seconds`` (SM makespan / issue-throughput side) and
  ``mem_seconds`` (DRAM bandwidth / L2-atomic side).
  :func:`repro.gpusim.costmodel.stream_demands` derives them from a
  :class:`~repro.gpusim.costmodel.KernelTiming`, so a kernel alone
  completes in exactly its offline ``gpu_seconds`` — single-stream serving
  reduces to the offline model (pinned by the serve parity tests).
* Each device resource is shared **equally among the resident kernels that
  still have remaining demand on it**.  A compute-bound kernel co-resident
  with a memory-bound one overlaps almost perfectly (each saturates the
  resource the other barely touches); two kernels bound on the same
  resource halve each other's rate — the same first-order behaviour the
  Lew et al. simulator study reports for concurrent ML kernels.
* Streams serialize their own kernels (FIFO).  Device-wide co-residency is
  capped by ``max_concurrent`` (hardware limit:
  :attr:`GPUSpec.max_concurrent_kernels`).
* Kernel launches serialize on the **host**: one launch occupies the host
  for ``launch_seconds`` before the kernel may enter the device.  This is
  what makes a six-kernel-per-batch pipeline (DGL-sim) pay its launch tax
  under load while the fused one-kernel TLPGNN batch pays it once.

Everything runs on the *simulated* clock — no wall time is read anywhere
(see DESIGN.md, "Determinism rules").
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace

__all__ = ["StreamKernel", "StreamCompletion", "MultiStreamSimulator"]

#: remaining demand below this many seconds counts as finished (sub-femto
#: relative to the micro/millisecond kernel scale — pure fp-noise absorber)
_REM_EPS = 1e-15
#: comparison slack when matching event times
_T_EPS = 1e-12


@dataclass(frozen=True)
class StreamKernel:
    """One kernel submission: demands are alone-run device-seconds."""

    name: str
    comp_seconds: float
    mem_seconds: float
    launch_seconds: float = 0.0
    #: opaque payload threaded through to the completion (e.g. a batch id)
    tag: object = None

    def __post_init__(self) -> None:
        if self.comp_seconds < 0 or self.mem_seconds < 0 or self.launch_seconds < 0:
            raise ValueError("kernel demands must be non-negative")

    @property
    def alone_seconds(self) -> float:
        """Modeled GPU time when the kernel owns the device."""
        return max(self.comp_seconds, self.mem_seconds)

    def with_tag(self, tag: object) -> "StreamKernel":
        return replace(self, tag=tag)


@dataclass(frozen=True)
class StreamCompletion:
    """Lifecycle timestamps of one finished kernel (simulated seconds)."""

    kernel: StreamKernel
    stream: int
    enqueue_s: float
    #: host began issuing the launch (after host-serialization wait)
    launch_start_s: float
    #: launch done — kernel eligible for a device co-residency slot
    ready_s: float
    #: began executing on the device
    start_s: float
    finish_s: float

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.enqueue_s

    @property
    def run_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def stretch(self) -> float:
        """Run time relative to the alone-run time (1.0 = no contention)."""
        alone = self.kernel.alone_seconds
        return self.run_s / alone if alone > 0 else 1.0


@dataclass
class _Resident:
    """Fluid state of one kernel currently executing on the device."""

    kernel: StreamKernel
    stream: int
    seq: int
    enqueue_s: float
    launch_start_s: float
    ready_s: float
    start_s: float
    rem_comp: float = field(default=0.0)
    rem_mem: float = field(default=0.0)

    @property
    def done(self) -> bool:
        return self.rem_comp <= _REM_EPS and self.rem_mem <= _REM_EPS


class MultiStreamSimulator:
    """Online event-driven device: submit kernels, advance simulated time.

    Usage::

        sim = MultiStreamSimulator(num_streams=2)
        sim.submit(k1, stream=0, at_s=0.0)
        sim.submit(k2, stream=1, at_s=0.0)
        sim.advance_to(1e-3)          # process everything due by t=1ms
        done = sim.take_completions() # per-stream completion times
        sim.drain()                   # run the backlog dry

    Submissions must be non-decreasing in time per stream and must not be
    in the simulator's past — the serving loop naturally satisfies both.
    """

    def __init__(self, *, num_streams: int = 1, max_concurrent: int | None = None):
        if num_streams < 1:
            raise ValueError("num_streams must be >= 1")
        self.num_streams = num_streams
        self.max_concurrent = (
            num_streams if max_concurrent is None else max(1, int(max_concurrent))
        )
        self.now = 0.0
        self._host_free = 0.0
        self._seq = 0
        #: not-yet-launched submissions, FIFO per stream: (enqueue_s, seq, kernel)
        self._queues: list[deque] = [deque() for _ in range(num_streams)]
        #: stream occupied by a launched-but-unfinished kernel
        self._stream_busy = [False] * num_streams
        #: launched kernels waiting for a device slot: (ready_s, seq, _Resident)
        self._ready: list[tuple] = []
        self._running: list[_Resident] = []
        self._completions: list[StreamCompletion] = []
        #: integral of resident-kernel count over time (avg concurrency)
        self._concurrency_integral = 0.0
        self._busy_horizon = 0.0  # last finish seen, for makespan

    # ------------------------------------------------------------------
    # submission / inspection
    # ------------------------------------------------------------------
    def submit(self, kernel: StreamKernel, *, stream: int, at_s: float) -> None:
        """Enqueue ``kernel`` on ``stream`` at simulated time ``at_s``."""
        if not 0 <= stream < self.num_streams:
            raise ValueError(f"stream {stream} out of range")
        if at_s < self.now - _T_EPS:
            raise ValueError(f"submission at {at_s} is in the simulator's past")
        q = self._queues[stream]
        if q and at_s < q[-1][0] - _T_EPS:
            raise ValueError("per-stream submissions must be time-ordered")
        self._seq += 1
        q.append((max(at_s, self.now), self._seq, kernel))

    @property
    def busy(self) -> bool:
        """Any kernel pending, launched, or running."""
        return bool(
            self._running or self._ready or any(self._queues)
        )

    @property
    def completions(self) -> list[StreamCompletion]:
        """All completions recorded so far (in finish order)."""
        return list(self._completions)

    def take_completions(self) -> list[StreamCompletion]:
        """Return and clear the completions recorded since the last take."""
        out = self._completions
        self._completions = []
        return out

    def pending_work_s(self, stream: int) -> float:
        """Alone-run seconds of work submitted to ``stream`` and unfinished
        (the serving loop's least-loaded stream-selection key)."""
        total = sum(k.alone_seconds + k.launch_seconds
                    for _, _, k in self._queues[stream])
        for _, _, res in self._ready:
            if res.stream == stream:
                total += res.kernel.alone_seconds
        for res in self._running:
            if res.stream == stream:
                total += max(res.rem_comp, res.rem_mem)
        return total

    @property
    def makespan_s(self) -> float:
        """Finish time of the last completed kernel."""
        return self._busy_horizon

    def avg_concurrency(self) -> float:
        """Time-average resident-kernel count up to the last completion."""
        if self._busy_horizon <= 0:
            return 0.0
        return self._concurrency_integral / self._busy_horizon

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def advance_to(self, t_target: float) -> None:
        """Process all launches, admissions and completions due by ``t_target``
        and move the simulated clock there."""
        if t_target < self.now - _T_EPS:
            raise ValueError("cannot advance into the past")
        guard = 0
        while True:
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - safety valve
                raise RuntimeError("stream simulator failed to converge")
            changed = self._start_launches()
            changed |= self._admit_ready()
            t_next = self._next_event_time(t_target)
            if t_next is None:  # idle and nothing due: jump straight to target
                if math.isfinite(t_target):
                    self.now = max(self.now, t_target)
                return
            if t_next > self.now + _T_EPS:
                if t_next > t_target + _T_EPS:
                    # next event is beyond the horizon: integrate up to the
                    # horizon and stop there
                    self._integrate(t_target - self.now)
                    self.now = t_target
                    return
                self._integrate(t_next - self.now)
                self.now = t_next
                changed = True
            changed |= self._collect_finished()
            if not changed and self.now >= t_target - _T_EPS:
                return

    def drain(self) -> None:
        """Advance until every submitted kernel has completed."""
        self.advance_to(math.inf)

    # ------------------------------------------------------------------
    def _start_launches(self) -> bool:
        """Issue host launches for every stream-head kernel due now.

        The host is a single serialized dispatcher: simultaneous launches
        queue behind each other for ``launch_seconds`` each, in
        (enqueue time, submission order) order.
        """
        launchable = []
        for stream in range(self.num_streams):
            if self._stream_busy[stream] or not self._queues[stream]:
                continue
            enqueue_s, seq, kernel = self._queues[stream][0]
            if enqueue_s <= self.now + _T_EPS:
                launchable.append((enqueue_s, seq, stream, kernel))
        if not launchable:
            return False
        for enqueue_s, seq, stream, kernel in sorted(launchable):
            self._queues[stream].popleft()
            self._stream_busy[stream] = True
            launch_start = max(self.now, self._host_free)
            ready = launch_start + kernel.launch_seconds
            self._host_free = ready
            res = _Resident(
                kernel=kernel, stream=stream, seq=seq, enqueue_s=enqueue_s,
                launch_start_s=launch_start, ready_s=ready, start_s=ready,
                rem_comp=kernel.comp_seconds, rem_mem=kernel.mem_seconds,
            )
            heapq.heappush(self._ready, (ready, seq, res))
        return True

    def _admit_ready(self) -> bool:
        """Move launched kernels into the resident set, capacity permitting."""
        changed = False
        while (
            self._ready
            and len(self._running) < self.max_concurrent
            and self._ready[0][0] <= self.now + _T_EPS
        ):
            _, _, res = heapq.heappop(self._ready)
            res.start_s = max(res.ready_s, self.now)
            self._running.append(res)
            changed = True
        return changed

    def _rates(self) -> tuple[dict[int, float], dict[int, float]]:
        """Per-resident progress rates under equal per-resource sharing."""
        comp_active = [r for r in self._running if r.rem_comp > _REM_EPS]
        mem_active = [r for r in self._running if r.rem_mem > _REM_EPS]
        comp_rate = {id(r): 1.0 / len(comp_active) for r in comp_active}
        mem_rate = {id(r): 1.0 / len(mem_active) for r in mem_active}
        return comp_rate, mem_rate

    def _next_event_time(self, t_target: float) -> float | None:
        """Earliest upcoming event, or None when the device is fully idle."""
        candidates: list[float] = []
        if self._running:
            comp_rate, mem_rate = self._rates()
            for r in self._running:
                if r.rem_comp > _REM_EPS:
                    candidates.append(self.now + r.rem_comp / comp_rate[id(r)])
                if r.rem_mem > _REM_EPS:
                    candidates.append(self.now + r.rem_mem / mem_rate[id(r)])
                if r.done:
                    candidates.append(self.now)
        if self._ready and len(self._running) < self.max_concurrent:
            candidates.append(max(self._ready[0][0], self.now))
        for stream in range(self.num_streams):
            if not self._stream_busy[stream] and self._queues[stream]:
                candidates.append(max(self._queues[stream][0][0], self.now))
        if not candidates:
            return None
        return min(candidates)

    def _integrate(self, dt: float) -> None:
        """Advance the fluid state by ``dt`` simulated seconds."""
        if dt <= 0 or not self._running:
            return
        comp_rate, mem_rate = self._rates()
        for r in self._running:
            rate = comp_rate.get(id(r))
            if rate is not None:
                r.rem_comp = max(0.0, r.rem_comp - rate * dt)
            rate = mem_rate.get(id(r))
            if rate is not None:
                r.rem_mem = max(0.0, r.rem_mem - rate * dt)
        self._concurrency_integral += len(self._running) * dt

    def _collect_finished(self) -> bool:
        done = [r for r in self._running if r.done]
        if not done:
            return False
        for r in sorted(done, key=lambda r: r.seq):
            self._running.remove(r)
            self._stream_busy[r.stream] = False
            self._completions.append(StreamCompletion(
                kernel=r.kernel, stream=r.stream, enqueue_s=r.enqueue_s,
                launch_start_s=r.launch_start_s, ready_s=r.ready_s,
                start_s=r.start_s, finish_s=self.now,
            ))
            self._busy_horizon = max(self._busy_horizon, self.now)
        return True
