"""Resource sanitizer: declared launch envelopes vs GPUSpec limits.

Checks every op's :class:`~repro.lint.effects.LaunchEnvelope` against the
device's structural limits *before* any costing runs — the counter models
assume a schedulable launch and would happily cost an impossible one
(``gpusim.scheduler.block_slots`` raises on oversized blocks, so the
structural checks here run first).

* **RES001/RES002/RES003** (errors) — block size, registers per thread, or
  shared memory per block exceed the device's hard limits.
* **RES004** (error) — the envelope leaves zero resident blocks per SM
  (e.g. register file exhausted): the kernel cannot launch.
* **RES005** (warning) — theoretical occupancy below 25%: launchable, but
  the latency-hiding assumptions of the cost model degrade (Figure 9's
  regime).
"""

from __future__ import annotations

from typing import Any

from ..gpusim.config import GPUSpec
from ..gpusim.occupancy import envelope_occupancy
from .registry import make_finding
from .report import Finding

__all__ = ["resource_findings", "LOW_OCCUPANCY_THRESHOLD"]

#: theoretical occupancy below this draws a RES005 warning
LOW_OCCUPANCY_THRESHOLD = 0.25


def resource_findings(plan: Any, spec: GPUSpec) -> list[Finding]:
    """Structural and occupancy checks of every declared launch envelope."""
    findings: list[Finding] = []
    for op in plan.ops:
        eff = op.effects
        if eff is None or eff.launch is None:
            continue  # HAZ001 covers the fully-undeclared case
        env = eff.launch
        structural = []
        if env.threads_per_block > spec.max_threads_per_block:
            structural.append(
                make_finding(
                    "RES001",
                    f"block size {env.threads_per_block} exceeds device "
                    f"limit {spec.max_threads_per_block}",
                    op=op.name,
                )
            )
        if env.regs_per_thread > spec.max_registers_per_thread:
            structural.append(
                make_finding(
                    "RES002",
                    f"{env.regs_per_thread} registers/thread exceeds "
                    f"device limit {spec.max_registers_per_thread}",
                    op=op.name,
                )
            )
        if env.shared_mem_per_block > spec.shared_mem_per_sm:
            structural.append(
                make_finding(
                    "RES003",
                    f"{env.shared_mem_per_block} B shared memory/block "
                    f"exceeds the SM's {spec.shared_mem_per_sm} B",
                    op=op.name,
                )
            )
        if structural:
            findings.extend(structural)
            continue  # occupancy math is meaningless past a hard limit
        occ = envelope_occupancy(
            spec,
            threads_per_block=env.threads_per_block,
            regs_per_thread=env.regs_per_thread,
            shared_mem_per_block=env.shared_mem_per_block,
        )
        if occ.blocks_per_sm < 1:
            findings.append(
                make_finding(
                    "RES004",
                    "launch envelope admits zero resident blocks per SM "
                    f"(limited by {occ.limited_by}) — the kernel cannot "
                    "launch",
                    op=op.name,
                )
            )
        elif occ.theoretical < LOW_OCCUPANCY_THRESHOLD:
            findings.append(
                make_finding(
                    "RES005",
                    f"theoretical occupancy {occ.theoretical:.0%} "
                    f"(limited by {occ.limited_by}) is below "
                    f"{LOW_OCCUPANCY_THRESHOLD:.0%} — latency hiding "
                    "degrades",
                    op=op.name,
                )
            )
    return findings
