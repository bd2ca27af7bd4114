"""Grid-level certification drivers (the ``repro verify`` entry points).

Three consumers share this module: the ``repro verify`` CLI (certify the
optimizer over the golden-cell grid and explain any failure as a minimal
diverging term), the ``verify-smoke`` CI job (same grid, machine-read),
and the ``serve --certified`` preflight (re-check the tuned-plan store's
certificate for the served cell before admitting traffic).

Everything heavyweight (frameworks, bench, opt) is imported inside the
functions: :mod:`repro.verify` sits below :mod:`repro.opt` in the layer
order — the optimizer imports the validator for its equivalence gate —
so this module must not close the cycle at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..identity import split_cell
from ..lint import Finding, make_finding
from .certificate import CertificationResult, certify_plans, verify_certificate

__all__ = [
    "CellCertification",
    "TunedPlanCheck",
    "certify_optimized",
    "certify_grid",
    "check_tuned_certificate",
]


@dataclass(frozen=True)
class CellCertification:
    """One grid cell's certification outcome."""

    system: str
    model: str
    dataset: str
    #: "certified" | "dash" (cell unsupported, as in the paper) |
    #: "failed" (non-equivalent or unprovable — the finding says why)
    status: str
    reason: str = ""
    result: CertificationResult | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("certified", "dash")

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "system": self.system,
            "model": self.model,
            "dataset": self.dataset,
            "status": self.status,
            "reason": self.reason,
        }
        if self.result is not None:
            row["verdict"] = self.result.decision.verdict
            row["diverging"] = self.result.decision.diverging
            cert = self.result.certificate
            row["cert_id"] = cert.cert_id if cert is not None else None
            row["findings"] = [
                {"code": f.rule, "severity": f.severity, "message": f.message}
                for f in self.result.decision.findings
            ]
        return row


def certify_optimized(
    system: Any,
    model: str,
    data: Any,
    X: Any,
    spec: Any,
    *,
    level: str = "search",
    budget: int = 16,
    seed: int = 0,
) -> tuple[CertificationResult, list[Any]]:
    """Lower one cell, optimize it, and certify optimized ≡ lowered."""
    from ..opt import optimize_plan

    lowered = system.lower(model, data, X, spec)
    _, dataset = split_cell(data)
    optimized, records = optimize_plan(
        lowered, spec, level=level, dataset=dataset, budget=budget, seed=seed
    )
    return certify_plans(optimized, lowered), records


def certify_grid(
    config: Any,
    *,
    systems: list[str] | None = None,
    models: list[str] | None = None,
    datasets: list[str] | None = None,
    level: str = "search",
    budget: int = 16,
) -> list[CellCertification]:
    """Certify the optimizer over a grid of cells (default: the golden
    grid of :mod:`repro.bench`)."""
    from ..bench import grid_cells, walk_grid
    from ..opt import IllegalRewriteError

    def certify(cell: Any, system: Any, model: str) -> Any:
        try:
            return certify_optimized(
                system, model, cell.dataset, cell.X, cell.spec,
                level=level, budget=budget, seed=config.seed,
            )[0]
        except IllegalRewriteError as exc:
            return exc

    results: list[CellCertification] = []
    for cell, model, name, result in walk_grid(
        grid_cells(config, datasets), certify, models=models, systems=systems
    ):
        if isinstance(result, IllegalRewriteError):
            status, reason, result = "failed", f"rewrite gate: {result}", None
        elif isinstance(result, Exception):
            status, reason, result = "dash", type(result).__name__, None
        elif result.certified:
            status, reason = "certified", ""
        else:
            status = "failed"
            reason = result.decision.diverging or result.decision.verdict
        results.append(
            CellCertification(
                name, model, cell.abbr, status, reason=reason, result=result
            )
        )
    return results


@dataclass(frozen=True)
class TunedPlanCheck:
    """Outcome of re-checking one cell's tuned-store certificate."""

    key: str
    entry: dict[str, Any] | None
    certificate: dict[str, Any] | None
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        """A tuned entry exists, carries a certificate, and it verifies."""
        return (
            self.entry is not None
            and self.certificate is not None
            and not self.findings
        )

    def render(self) -> str:
        if self.entry is None:
            return (
                f"no tuned plan recorded for key {self.key[:12]}.. — "
                "nothing to certify (run `repro tune --store ...` first)"
            )
        if self.ok:
            assert self.certificate is not None
            return (
                "tuned-plan certificate ok "
                f"(cert {str(self.certificate.get('cert_id', ''))[:12]}.., "
                f"verdict {self.certificate.get('verdict')})"
            )
        return "\n".join(f.render() for f in self.findings)


def check_tuned_certificate(
    system: Any,
    model: str,
    data: Any,
    X: Any,
    spec: Any,
    *,
    store: Any | None = None,
) -> TunedPlanCheck:
    """Re-verify the tuned-plan store's certificate for one cell.

    Rebuilds the tuned plan from the persisted knobs exactly the way
    ``opt="search"`` would replay it, then checks the stored certificate
    against the rebuilt plan's normal form — a hand-edited entry, a
    stripped certificate, or a grammar bump all surface as EQ004.
    """
    from ..opt import get_tuned_store, optimize_plan, tuning_key
    from ..opt.rewrites import _conv_index, _with_kernel, kernel_from_knobs

    tuned_store = store if store is not None else get_tuned_store()
    graph, dataset = split_cell(data)
    key = tuning_key(
        system=system.name, model=model, graph=graph, X=X,
        spec=spec, dataset=dataset,
    )
    entry = tuned_store.entry(key)
    if entry is None:
        return TunedPlanCheck(key=key, entry=None, certificate=None)
    cert = entry.get("certificate")
    if not cert:
        return TunedPlanCheck(
            key=key,
            entry=entry,
            certificate=None,
            findings=(
                make_finding(
                    "EQ004",
                    "tuned-store entry carries no equivalence certificate "
                    "(recorded before certification, or stripped by hand) "
                    "— re-tune to certify",
                ),
            ),
        )
    lowered = system.lower(model, data, X, spec)
    reference, _ = optimize_plan(
        lowered, spec, level="safe", dataset=dataset
    )
    subject = reference
    idx = _conv_index(reference)
    if idx is not None:
        kernel = kernel_from_knobs(dict(entry["knobs"]), dataset=dataset)
        if kernel is not None:
            subject = _with_kernel(reference, idx, kernel)
    findings = verify_certificate(
        cert, subject_plan=subject, reference_plan=reference
    )
    return TunedPlanCheck(
        key=key, entry=entry, certificate=cert, findings=tuple(findings)
    )
