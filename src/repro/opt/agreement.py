"""Cost-model vs. micro-simulator agreement on tuner decisions.

The optimizer ranks candidate kernels with the analytical cost model
(:func:`~repro.opt.passes.modeled_runtime_s`).  The detailed-simulator
literature (PAPERS.md) warns that analytical models can mis-rank close
candidates, so this module provides the independent check the agreement
test suite runs: replay each candidate through the exact
:class:`~repro.gpusim.microsim.MicroSim` (warp-by-warp transaction
counting) and compare the two rankings on a small grid of cells.

Divergent cells are not necessarily bugs — the two models intentionally
weight latency-hiding differently — so, gSuite-style, known divergences
live in a committed tolerance file (``tests/data/opt_tolerance.json``)
and the test fails only on *new* divergence.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..gpusim.config import V100, GPUSpec
from ..gpusim.microsim import MicroSim
from .passes import modeled_runtime_s
from .rewrites import _conv_index, _with_kernel

__all__ = ["microsim_cycles", "rank_agreement"]


def microsim_cycles(kernel: Any, workload: Any, spec: GPUSpec = V100) -> float:
    """Exact-replay cost proxy for one kernel launch (cycles).

    Replays the kernel warp by warp through the micro-simulator and
    folds the transaction counters into a single scalar with the
    device's own bandwidth/issue weights: memory sectors cost their
    DRAM service time, instructions their issue slots — the same two
    axes the analytical roofline uses, but fed by exact counts.
    """
    sim = MicroSim(spec=spec)
    kernel.trace(workload, sim)
    sectors = sim.load_sectors + sim.store_sectors + sim.atomic_sectors
    mem_s = sectors * spec.sector_bytes / spec.mem_bandwidth_bytes_per_s
    issue_s = sim.instructions / (
        spec.num_sms * spec.issue_slots_per_sm * spec.clock_hz
    )
    atomic_s = sim.atomic_ops / (spec.atomic_ops_per_cycle * spec.clock_hz)
    return max(mem_s, issue_s, atomic_s)


def rank_agreement(
    plan: Any, kernels: Iterable[Any], spec: GPUSpec = V100
) -> dict[str, Any]:
    """Compare cost-model and micro-sim winner over candidate kernels.

    Returns a dict with both rankings (kernel names, cheapest first) and
    ``agree`` — whether the two models pick the same *winner*.  Ranking
    of non-winning candidates is allowed to differ: the tuner only acts
    on the argmin.
    """
    idx = _conv_index(plan)
    if idx is None:
        raise ValueError("plan has no rebindable compute kernel")
    workload = plan.ops[idx].workload
    cost_scores: list[tuple[float, str]] = []
    sim_scores: list[tuple[float, str]] = []
    for kernel in kernels:
        cost_scores.append(
            (modeled_runtime_s(_with_kernel(plan, idx, kernel), spec),
             kernel.name)
        )
        sim_scores.append((microsim_cycles(kernel, workload, spec), kernel.name))
    cost_rank = [name for _, name in sorted(cost_scores)]
    sim_rank = [name for _, name in sorted(sim_scores)]
    return {
        "cost_rank": cost_rank,
        "sim_rank": sim_rank,
        "agree": cost_rank[0] == sim_rank[0],
    }
