"""Determinism lint: bitwise reproducibility of a plan's output.

TLPGNN's aggregation is atomic-free by construction (warp-per-vertex, each
warp owns its output row), so its float addition order is fixed and runs
are bitwise reproducible.  Scatter-style baselines merge rows with
``atomicAdd`` on floats: the hardware serializes colliding updates in
arrival order, which varies run to run — same math, different rounding.

* **DET001** (warning) — an atomic merge on a float buffer under a
  non-idempotent reduce (:func:`~repro.lint.effects.reassociating_merges`):
  the plan's output is order-nondeterministic.  Every DGL-sim GAT plan (the
  ``spmm_coo_atomic`` path) and every GNNAdvisor neighbor-group plan draws
  this; TLPGNN plans must not.  An atomic ``max`` merge is order-free.
* **DET002** (warning) — an rng-consuming op: reproducible only when the
  caller pins the generator (the cache-safety side is HAZ004).
"""

from __future__ import annotations

from typing import Any

from .effects import reassociating_merges
from .registry import make_finding
from .report import Finding

__all__ = ["determinism_findings"]


def determinism_findings(plan: Any) -> list[Finding]:
    """Order-nondeterminism warnings for one lowered plan."""
    findings: list[Finding] = []
    reduce = getattr(plan.compute.workload, "reduce", None)
    for op in plan.ops:
        eff = op.effects
        if eff is None:
            continue  # HAZ001 covers undeclared ops
        for buffer in reassociating_merges(eff, reduce):
            findings.append(
                make_finding(
                    "DET001",
                    f"atomic float merge into '{buffer}' "
                    f"({eff.atomic_ops} ops): addition order follows "
                    "hardware arrival order — output is "
                    "order-nondeterministic",
                    op=op.name,
                    buffer=buffer,
                )
            )
        if eff.reads_rng:
            findings.append(
                make_finding(
                    "DET002",
                    "op consumes host randomness — reproducible only "
                    "under a caller-pinned generator",
                    op=op.name,
                )
            )
    return findings
