"""Work scheduling models: hardware block distributor and greedy makespan.

The paper's hybrid workload balancing (Section 5) contrasts two policies:

* **hardware** — launch one warp per vertex; the GPU's block distributor
  dynamically feeds blocks to SMs.  Fewer warps per block = better balance
  but more blocks to schedule (overhead); more warps per block = the
  opposite.
* **software** — launch a fixed resident grid; warps pull chunks of
  vertices from a global atomic counter (Algorithm 1).

Both are one greedy list schedule: the earliest-free worker takes the
next task, the lowest index winning a tie.  :func:`place` runs it a task
at a time and returns where and when each task runs (the timeline draws
its SM tracks from it); :func:`greedy_makespan` returns only its makespan.
Up to ``_EXACT_SIM_LIMIT`` tasks that makespan is exact, which every
modeled kernel of a perfbench or CI-sized cell uses.  It is computed a
chunk of tasks per array step, with a heap for few workers and for
stretches where chunks stay short; the results are bit-identical to the
one-task-per-step heap the tests keep as their oracle.  Above the limit
an analytical bound stands in; the tests pin it to the simulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .config import GPUSpec
from .kernel import LaunchConfig

__all__ = [
    "Placement",
    "ScheduleResult",
    "block_max",
    "block_slots",
    "greedy_makespan",
    "place",
    "hardware_schedule",
    "static_schedule",
    "software_pool_schedule",
]

#: Above this many tasks the exact simulation falls back to the bound.
_EXACT_SIM_LIMIT = 250_000

#: Below this many workers the exact simulation steps the heap: a chunk
#: holds at most one task per worker, too few to pay for its array steps.
_CHUNK_FLOOR = 128


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one kernel's work onto the device."""

    makespan_cycles: float
    #: total busy warp-cycles (for achieved occupancy)
    busy_warp_cycles: float
    #: scheduling overhead included in the makespan (cycles)
    overhead_cycles: float
    #: number of scheduled units (blocks or chunks)
    num_units: int
    policy: str


@dataclass(frozen=True)
class Placement:
    """Where and when each task of a greedy list schedule runs."""

    #: index of the worker that runs each task
    worker: np.ndarray
    start: np.ndarray
    end: np.ndarray


def place(
    costs: np.ndarray, workers: int, *, per_task_overhead: float = 0.0
) -> Placement:
    """Greedy list schedule of ``costs`` onto ``workers``, one task at a
    time: the earliest-free worker takes the next task, and the lowest
    worker index wins a tie.  Its latest ``end`` is
    :func:`greedy_makespan`'s exact makespan, bit for bit."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    eff = np.asarray(costs, dtype=np.float64) + per_task_overhead
    worker = np.empty(eff.size, dtype=np.int64)
    start = np.empty(eff.size, dtype=np.float64)
    free = [(0.0, w) for w in range(min(workers, eff.size))]
    for i, c in enumerate(eff.tolist()):
        t, w = free[0]
        heapq.heapreplace(free, (t + c, w))
        worker[i] = w
        start[i] = t
    return Placement(worker=worker, start=start, end=start + eff)


def greedy_makespan(
    costs: np.ndarray,
    workers: int,
    *,
    per_task_overhead: float = 0.0,
    exact: bool | None = None,
) -> float:
    """Makespan of greedy list scheduling of ``costs`` onto ``workers``.

    Tasks are taken in order by whichever worker frees first — the behaviour
    of both the hardware block distributor and the software task pool.  The
    analytical fallback is the classic Graham bound interpolation
    ``max(mean_load, max_task) <= makespan <= mean_load + max_task`` taken at
    the mean-plus-tail point.  The tests hold it, on a heavy-tailed
    GNN-shaped draw, between the trivial lower bound and 1.5x the exact
    makespan, and within 40% of it.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = costs.size
    if n == 0:
        return 0.0
    eff = costs + per_task_overhead
    if exact is None:
        exact = n <= _EXACT_SIM_LIMIT
    if not exact:
        mean_load = float(eff.sum()) / workers
        max_task = float(eff.max())
        if n <= workers:
            return max_task
        # Graham's list-scheduling guarantee: mean load plus the residual of
        # the worst task landing late.  Tests pin this against the exact
        # simulation for GNN-shaped cost distributions.
        return max(mean_load + max_task * (1.0 - 1.0 / workers), max_task)
    if n <= workers:
        return float(eff.max())
    # the first `workers` tasks start at once
    free = np.sort(eff[:workers])
    if workers < _CHUNK_FLOOR:
        return max(_heap_steps(free.tolist(), eff[workers:].tolist()))
    return _chunked_makespan(eff, free)


def _heap_steps(free: list[float], costs: list[float]) -> list[float]:
    """Give each task in turn to the earliest-free worker; ``free`` is a
    heap of the workers' free times and comes back updated."""
    for c in costs:
        heapq.heapreplace(free, free[0] + c)
    return free


def _chunked_makespan(eff: np.ndarray, free: np.ndarray) -> float:
    """Exact greedy makespan of ``eff[free.size:]`` onto workers whose
    sorted free times are ``free``, a chunk of tasks per array step.

    The heap gives task ``pos + i`` the earliest free time.  While every
    time pushed by tasks ``pos .. pos + i - 1`` is at or after ``free[i]``,
    that earliest time is ``free[i]``, so the next k tasks take the k
    earliest slots in order.  The chunk is cut at the first task for which
    an earlier push lands first; the pushed times are the same float
    additions of the same operands as the heap's, ties included.  Where
    chunks stay short (a few slots far ahead of the rest) the heap steps
    instead, for a stretch that doubles while chunks stay short.
    """
    workers = free.size
    n = eff.size
    pos = workers
    stretch = 4 * workers
    while pos < n:
        k = min(workers, n - pos)
        pushed = free[:k] + eff[pos:pos + k]
        if k > 1:
            early = np.minimum.accumulate(pushed[:-1]) < free[1:k]
            cut = int(early.argmax())
            if early[cut]:
                k = cut + 1
                pushed = pushed[:k]
        pushed.sort()
        # two sorted runs: the stable sort (timsort) merges them
        free = np.concatenate((free[k:], pushed))
        free.sort(kind="stable")
        pos += k
        if k < workers // 8:
            end = min(pos + stretch, n)
            free = np.sort(_heap_steps(free.tolist(), eff[pos:end].tolist()))
            pos = end
            stretch *= 2
        else:
            stretch = 4 * workers
    return float(free[-1])


def block_max(warp_cycles: np.ndarray, wpb: int) -> np.ndarray:
    """Per-block cost of consecutive ``wpb``-warp blocks: the slowest warp's
    (a short last block is padded with idle warps).  The maximum is taken
    one warp lane at a time, which is much faster than a row-wise
    reduction over narrow rows."""
    n_blocks = -(-warp_cycles.size // wpb)
    lanes = np.pad(warp_cycles, (0, n_blocks * wpb - warp_cycles.size))
    lanes = lanes.reshape(n_blocks, wpb)
    block_cost = lanes[:, 0].copy()
    for j in range(1, wpb):
        np.maximum(block_cost, lanes[:, j], out=block_cost)
    return block_cost


def block_slots(launch: LaunchConfig, spec: GPUSpec) -> int:
    """The device's concurrent block slots for ``launch``: as many resident
    blocks per SM as occupancy allows, at least one.  Slot ``s`` lies on SM
    ``s % spec.num_sms``, so the distributor gives every SM a block before
    it gives any SM a second."""
    blocks_per_sm = spec.occupancy_limit_blocks(
        launch.threads_per_block, launch.regs_per_thread, launch.shared_mem_per_block
    )
    return max(spec.num_sms * max(blocks_per_sm, 1), 1)


def hardware_schedule(
    warp_cycles: np.ndarray,
    launch: LaunchConfig,
    spec: GPUSpec,
) -> ScheduleResult:
    """Hardware dynamic block scheduling of per-warp costs.

    Consecutive warps are grouped into blocks of ``launch.warps_per_block``;
    a block occupies its warp slots until its *slowest* warp finishes (the
    intra-block imbalance the paper tunes warps-per-block against).  Blocks
    are then greedily distributed over the device's concurrent block slots,
    paying ``block_schedule_cycles`` each.
    """
    warp_cycles = np.asarray(warp_cycles, dtype=np.float64)
    wpb = launch.warps_per_block(spec.threads_per_warp)
    if warp_cycles.size == 0:
        return ScheduleResult(0.0, 0.0, 0.0, 0, "hardware")
    block_cost = block_max(warp_cycles, wpb)
    n_blocks = block_cost.size
    slots = block_slots(launch, spec)
    makespan = greedy_makespan(
        block_cost, slots, per_task_overhead=spec.block_schedule_cycles
    )
    overhead = spec.block_schedule_cycles * n_blocks / slots
    # Busy cycles: a block's warp slots are held for the block's duration,
    # but only `warp_cycles` of it is useful work.
    busy = float(warp_cycles.sum())
    return ScheduleResult(
        makespan_cycles=float(makespan),
        busy_warp_cycles=busy,
        overhead_cycles=float(overhead),
        num_units=n_blocks,
        policy="hardware",
    )


def static_schedule(
    warp_cycles: np.ndarray,
    launch: LaunchConfig,
    spec: GPUSpec,
) -> ScheduleResult:
    """Compile-time-fixed block→slot assignment (FeatGraph/TVM templates).

    Blocks are assigned round-robin to the device's concurrent block slots
    *before* execution, so a slot that drew heavy blocks cannot steal work
    from an idle one — the imbalance the paper blames for FeatGraph's low
    achieved occupancy (Figure 9).
    """
    warp_cycles = np.asarray(warp_cycles, dtype=np.float64)
    wpb = launch.warps_per_block(spec.threads_per_warp)
    if warp_cycles.size == 0:
        return ScheduleResult(0.0, 0.0, 0.0, 0, "static")
    block_cost = block_max(warp_cycles, wpb)
    n_blocks = block_cost.size
    slots = block_slots(launch, spec)
    # round-robin: slot s runs blocks s, s+slots, s+2*slots, ...
    pad_b = (-n_blocks) % slots
    per_slot = np.pad(block_cost, (0, pad_b)).reshape(-1, slots).sum(axis=0)
    makespan = float(per_slot.max())
    return ScheduleResult(
        makespan_cycles=makespan,
        busy_warp_cycles=float(warp_cycles.sum()),
        overhead_cycles=0.0,
        num_units=n_blocks,
        policy="static",
    )


def software_pool_schedule(
    vertex_cycles: np.ndarray,
    spec: GPUSpec,
    *,
    step: int = 8,
    resident_warps: int | None = None,
) -> ScheduleResult:
    """Software task-pool scheduling (Algorithm 1 of the paper).

    ``vertex_cycles`` holds the per-vertex cost; warps atomically pull
    ``step`` consecutive vertices at a time.  The resident grid is fixed at
    the device's maximum concurrent warps, so there is no block-scheduling
    overhead — only one ``atomicAdd`` on the pool counter per chunk.
    """
    vertex_cycles = np.asarray(vertex_cycles, dtype=np.float64)
    if step < 1:
        raise ValueError("step must be >= 1")
    n = vertex_cycles.size
    if n == 0:
        return ScheduleResult(0.0, 0.0, 0.0, 0, "software")
    if resident_warps is None:
        resident_warps = spec.max_resident_warps
    n_chunks = -(-n // step)
    pad = n_chunks * step - n
    padded = np.pad(vertex_cycles, (0, pad))
    chunk_cost = padded.reshape(n_chunks, step).sum(axis=1)
    # One atomic fetch-add per chunk; contention grows with resident warps
    # but is bounded by the L2 atomic turnaround.
    fetch_cost = spec.cycles_per_atomic + spec.cycles_per_request
    makespan = greedy_makespan(
        chunk_cost, resident_warps, per_task_overhead=fetch_cost
    )
    overhead = fetch_cost * n_chunks / resident_warps
    return ScheduleResult(
        makespan_cycles=float(makespan),
        busy_warp_cycles=float(vertex_cycles.sum()),
        overhead_cycles=float(overhead),
        num_units=n_chunks,
        policy="software",
    )
