"""Workload-balance tuning: hardware vs software assignment, and the knobs.

Section 5 of the paper: hardware block scheduling balances better with
fewer warps per block (at higher scheduling cost), the software task pool
amortizes one atomic per chunk, and a heuristic picks between them.  This
example sweeps both knobs over two very different graphs and shows where
the paper's thresholds come from.

    python examples/balance_tuning.py
"""

import numpy as np

from repro.balance import choose_assignment, hardware_assignment, software_assignment
from repro.bench import BenchConfig, get_dataset, make_features
from repro.gpusim import V100, place, warp_cycles
from repro.kernels import TLPGNNKernel
from repro.models import build_conv


def vertex_cycles(abbr: str, config: BenchConfig) -> tuple[np.ndarray, object]:
    ds = get_dataset(abbr, config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    wl = build_conv("gcn", ds.graph, X)
    spec = config.spec_for(ds)
    stats, _ = TLPGNNKernel(assignment="hardware").analyze(wl, spec)
    return stats.warp_cycles, (ds, spec)


def main() -> None:
    config = BenchConfig(feat_dim=32)

    for abbr in ("OH", "RD"):  # many sparse vertices vs few dense ones
        cycles, (ds, spec) = vertex_cycles(abbr, config)
        print(f"=== {ds.spec.full_name} ({abbr}): |V|={ds.graph.num_vertices:,}, "
              f"avg degree {ds.graph.avg_degree:.1f} ===")

        print("  hardware assignment, warps/block sweep:")
        for wpb in (1, 2, 4, 8, 16):
            sched, _ = hardware_assignment(cycles, spec, warps_per_block=wpb)
            print(
                f"    wpb={wpb:>2}: makespan {sched.makespan_cycles / 1e6:8.2f} "
                f"Mcycles (sched overhead {sched.overhead_cycles / 1e6:6.2f})"
            )

        print("  software task pool, step sweep:")
        for step in (1, 4, 8, 32, 128):
            sched, _ = software_assignment(cycles, spec, step=step)
            print(
                f"    step={step:>3}: makespan {sched.makespan_cycles / 1e6:8.2f}"
                f" Mcycles ({sched.num_units} chunks)"
            )

        policy = choose_assignment(ds.full_num_vertices, ds.full_avg_degree)
        print(f"  heuristic verdict for the full-size workload: {policy}\n")

    # Algorithm 1: the next chunk of `step` vertices goes to whichever warp's
    # atomicAdd lands first, paying one fetch per pull — watch a small pool
    print("=== Algorithm 1 on a toy pool (24 vertices, 4 warps, step 4) ===")
    rng = np.random.default_rng(0)
    costs = warp_cycles(
        V100, instructions=rng.integers(5, 50, 24), requests=4.0, sectors=8.0
    )
    step = 4
    chunks = place(costs.reshape(-1, step).sum(axis=1), 4, per_task_overhead=10.0)
    owner = np.repeat(chunks.worker, step)
    for w in range(4):
        pulled = chunks.worker == w
        print(
            f"  warp {w}: vertices {np.flatnonzero(owner == w).tolist()} "
            f"({pulled.sum()} pulls, "
            f"finished at {chunks.end[pulled].max(initial=0.0):.0f} cycles)"
        )
    print(f"  makespan: {chunks.end.max():.0f} cycles")


if __name__ == "__main__":
    main()
