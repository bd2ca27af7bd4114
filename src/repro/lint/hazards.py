"""Race / hazard detection over a plan's declared effect tables.

Walks the op list in launch order, building the def-use relation between
ops through their named buffers:

* **HAZ001** — an op with no effect table at all: nothing about it can be
  checked, which is itself an error (new kernels must declare).
* **HAZ002** — a non-exclusive write without a declared atomic merge of the
  same buffer: two scheduled units may write the same element and the last
  one silently wins.  This is exactly the bug class of a push/scatter
  kernel that dropped its ``atomicAdd``.
* **HAZ003** — a read of a ``tmp:*`` transient no earlier op produced: a
  read-after-write hazard across a fusion boundary (the producer was fused
  away or reordered) or a plain use-before-def.

The plan argument is duck-typed (``.ops`` with ``.name``/``.effects``)
so this module never imports :mod:`repro.plan`.
"""

from __future__ import annotations

from typing import Any

from .effects import is_transient
from .registry import make_finding
from .report import Finding

__all__ = ["hazard_findings"]


def hazard_findings(plan: Any) -> list[Finding]:
    """Undeclared-effect and def-use hazards of one lowered plan."""
    findings: list[Finding] = []
    defined: set[str] = set()  # transients materialized by earlier ops
    for op in plan.ops:
        eff = op.effects
        if eff is None:
            findings.append(
                make_finding(
                    "HAZ001",
                    "op declares no effect table; hazard, resource and "
                    "determinism analysis are impossible",
                    op=op.name,
                )
            )
            continue
        atomics = set(eff.atomics)
        for b in eff.buffers:
            if b.mode == "read" and is_transient(b.buffer) and b.buffer not in defined:
                findings.append(
                    make_finding(
                        "HAZ003",
                        f"reads transient '{b.buffer}' that no earlier "
                        "kernel wrote — read-after-write hazard across a "
                        "fusion boundary (or use-before-def)",
                        op=op.name,
                        buffer=b.buffer,
                    )
                )
            if b.mode == "write" and not b.exclusive and b.buffer not in atomics:
                findings.append(
                    make_finding(
                        "HAZ002",
                        f"non-exclusive write to '{b.buffer}' without a "
                        "declared atomic merge — write-write race on "
                        "shared output rows",
                        op=op.name,
                        buffer=b.buffer,
                    )
                )
        for b in eff.buffers:
            if b.mode in ("write", "atomic"):
                defined.add(b.buffer)
    return findings
