"""Central finding-code registry: every lint rule in one table.

Each rule id maps to its fixed severity, a one-line summary, and the
README anchor documenting the family.  The analyses construct findings
through :func:`make_finding` so a code's severity lives in exactly one
place; the CLI ``--explain CODE`` helper and the README finding-code
table render from the same entries.

A code no program path can produce any more leaves :data:`RULES` for
:data:`RETIRED`: it can no longer be emitted, but ``--explain`` still
answers it with the reason it went.

Like every lint module, this one never imports :mod:`repro.plan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import Finding

__all__ = ["RETIRED", "RULES", "RuleInfo", "explain", "make_finding", "rule_info"]


@dataclass(frozen=True)
class RuleInfo:
    """One registered finding code."""

    code: str
    severity: str  # "error" | "warning" | "info"
    summary: str  # one line, shared by --explain and the README table
    anchor: str  # README heading anchor documenting the family


def _rules(*infos: RuleInfo) -> dict[str, RuleInfo]:
    return {info.code: info for info in infos}


RULES: dict[str, RuleInfo] = _rules(
    # -- hazards (undeclared effects, def-use races) -------------------
    RuleInfo(
        "HAZ001", "error",
        "op declares no effect table — nothing about it can be checked",
        "hazards-haz",
    ),
    RuleInfo(
        "HAZ002", "error",
        "non-exclusive write without a declared atomic merge (write-write race)",
        "hazards-haz",
    ),
    RuleInfo(
        "HAZ003", "error",
        "read of a tmp:* transient no earlier op produced (RAW across fusion)",
        "hazards-haz",
    ),
    # -- resources (launch envelope vs GPUSpec) -------------------------
    RuleInfo(
        "RES001", "error",
        "block size exceeds the device's max threads per block",
        "resources-res",
    ),
    RuleInfo(
        "RES002", "error",
        "registers per thread exceed the device limit",
        "resources-res",
    ),
    RuleInfo(
        "RES003", "error",
        "shared memory per block exceeds the SM's capacity",
        "resources-res",
    ),
    RuleInfo(
        "RES004", "error",
        "launch envelope admits zero resident blocks per SM",
        "resources-res",
    ),
    RuleInfo(
        "RES005", "warning",
        "theoretical occupancy below 25% — latency hiding degrades",
        "resources-res",
    ),
    # -- determinism ----------------------------------------------------
    RuleInfo(
        "DET001", "warning",
        "atomic float merge — addition order follows hardware arrival order",
        "determinism-det",
    ),
    # -- access patterns (coalescing / divergence / bounds) -------------
    RuleInfo(
        "ACC001", "error",
        "effects-declared buffer has no access pattern (or no table at all)",
        "access-patterns-accdivoob",
    ),
    RuleInfo(
        "ACC002", "warning",
        "gather-random read: per-lane indirect rows defeat coalescing",
        "access-patterns-accdivoob",
    ),
    RuleInfo(
        "ACC003", "warning",
        "strided access: lane stride splits each request across sectors",
        "access-patterns-accdivoob",
    ),
    RuleInfo(
        "ACC004", "warning",
        "scattered write/atomic: indirect row targets collide across units",
        "access-patterns-accdivoob",
    ),
    RuleInfo(
        "DIV001", "warning",
        "per-lane degree-dependent trip count — intra-warp divergence",
        "access-patterns-accdivoob",
    ),
    RuleInfo(
        "DIV002", "info",
        "recurring tail masking: loop rounds leave lanes idle",
        "access-patterns-accdivoob",
    ),
    RuleInfo(
        "OOB001", "error",
        "symbolic index range exceeds the declared buffer shape",
        "access-patterns-accdivoob",
    ),
    # -- whole-plan dataflow (shape/dtype inference) --------------------
    RuleInfo(
        "SHAPE001", "error",
        "producer and consumer disagree on a buffer's inferred shape",
        "dataflow-shapelive",
    ),
    RuleInfo(
        "SHAPE002", "error",
        "dtype-conflicting write/read: a narrower dtype silently truncates",
        "dataflow-shapelive",
    ),
    RuleInfo(
        "SHAPE003", "error",
        "under-allocated transient: a consumer reads past the producer's extent",
        "dataflow-shapelive",
    ),
    RuleInfo(
        "SHAPE004", "error",
        "plan I/O contract violation: a standard buffer's shape contradicts the workload",
        "dataflow-shapelive",
    ),
    # -- liveness / peak device memory ----------------------------------
    RuleInfo(
        "LIVE001", "error",
        "peak live footprint exceeds the device's HBM capacity",
        "dataflow-shapelive",
    ),
    RuleInfo(
        "LIVE002", "warning",
        "peak live footprint above 80% of HBM — allocator headroom is gone",
        "dataflow-shapelive",
    ),
    # -- plan equivalence (translation validation) ----------------------
    RuleInfo(
        "EQ001", "error",
        "kernel or op carries no derivable normal form — equivalence unprovable",
        "verification-eq",
    ),
    RuleInfo(
        "EQ002", "error",
        "output producer terms diverge — the rewrite changes what is computed",
        "verification-eq",
    ),
    RuleInfo(
        "EQ003", "warning",
        "reduction-order-only divergence — equivalent modulo float reassociation, not bit-exact",
        "verification-eq",
    ),
    RuleInfo(
        "EQ004", "error",
        "stale or tampered equivalence certificate — content address does not verify",
        "verification-eq",
    ),
)


#: retired code -> the one-line reason no program can produce it
RETIRED: dict[str, str] = {
    "HAZ004": "no kernel op consumes host randomness, so no cached plan "
    "can replay stale random state",
    "DET002": "no kernel op consumes host randomness, so no plan's output "
    "depends on a generator's state",
    "RACE001": "concurrent batches share only buffers no op writes, so no "
    "two streams write one buffer",
    "RACE002": "concurrent batches share only buffers no op writes, so no "
    "stream's read meets another stream's write",
    "RACE003": "concurrent batches share only buffers no op writes, so no "
    "two streams merge into one buffer",
}


def rule_info(code: str) -> RuleInfo:
    """The registry entry for ``code`` (KeyError for unknown codes)."""
    return RULES[code]


def make_finding(
    code: str, message: str, *, op: str | None = None, buffer: str | None = None
) -> Finding:
    """Build a finding whose severity comes from the registry."""
    return Finding(
        severity=RULES[code].severity,
        rule=code,
        message=message,
        op=op,
        buffer=buffer,
    )


def explain(code: str) -> str:
    """Multi-line human rendering of one registry entry (CLI --explain);
    a retired code renders with the reason it went."""
    if code in RETIRED:
        return (
            f"{code} [retired]\n"
            f"  {RETIRED[code]}\n"
            "  docs: README.md#retired-codes"
        )
    info = RULES[code]
    return (
        f"{info.code} [{info.severity}]\n"
        f"  {info.summary}\n"
        f"  docs: README.md#{info.anchor}"
    )
