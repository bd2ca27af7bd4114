"""Lint findings, severity ranking, and report rendering.

Kept free of sibling imports (the analyses import *us*) and free of
:mod:`repro.plan` imports (the plan IR sits above the lint layer).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

__all__ = [
    "SEVERITIES",
    "Finding",
    "LintReport",
    "finding_rows",
    "severity_rank",
    "sort_findings",
]

#: most severe first — the sort order of every report
SEVERITIES = ("error", "warning", "info")


def severity_rank(severity: str) -> int:
    """Position in :data:`SEVERITIES` (unknown severities sort last)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES)


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic against one op of one plan."""

    severity: str  # "error" | "warning" | "info"
    rule: str  # e.g. "HAZ002"
    message: str
    op: str | None = None  # offending KernelOp name (None = whole plan)
    buffer: str | None = None  # offending buffer name, where one exists

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")

    def render(self) -> str:
        where = f" @ {self.op}" if self.op else ""
        return f"[{self.severity}] {self.rule}{where}: {self.message}"

    def key(self) -> tuple[str, str, str]:
        """Identity triple used by baseline suppression and --json."""
        return (self.rule, self.op or "", self.buffer or "")


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Severity-ranked, then stable by rule id, op, and buffer name."""
    return sorted(
        findings,
        key=lambda f: (severity_rank(f.severity), f.rule, f.op or "", f.buffer or ""),
    )


def finding_rows(plan_label: str, findings: Iterable[Finding]) -> list[dict[str, str]]:
    """The stable JSON row encoding of findings (``repro lint --json``).

    One dict per finding with exactly the fields plan / code / severity /
    op / buffer / message — the contract the baseline files and the
    registry round-trip test are written against.
    """
    return [
        {
            "plan": plan_label,
            "code": f.rule,
            "severity": f.severity,
            "op": f.op or "",
            "buffer": f.buffer or "",
            "message": f.message,
        }
        for f in findings
    ]


@dataclass(frozen=True)
class LintReport:
    """All findings of one linted plan, severity-ranked."""

    plan_label: str  # "System/model on graph"
    findings: tuple[Finding, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings do not fail a plan)."""
        return not self.errors

    def render(self) -> str:
        if not self.findings:
            return f"{self.plan_label}: clean"
        head = (
            f"{self.plan_label}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        lines = [head]
        lines.extend("  " + f.render() for f in self.findings)
        return "\n".join(lines)
