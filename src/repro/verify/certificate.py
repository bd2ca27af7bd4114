"""Content-addressed equivalence certificates (EQ004).

A certificate is the persistable witness that two plans were compared
and found equivalent: the two normal-form digests, the verdict, and a
``cert_id`` that is the sha256 of the canonical JSON payload — so any
edit to a persisted certificate (a hand-tweaked knob file, a truncated
store, a version from a previous grammar) is detectable without
re-deriving anything.  ``verify_certificate`` re-checks all of it and,
when given the live plan(s), re-normalizes them against the recorded
digests so a *stale* certificate (the plan moved on) is as invalid as a
tampered one.

Certificates ride only on :class:`~repro.opt.tuner.TunedPlanStore`
entries (the tuner certifies what it persists); the ``serve --certified``
preflight refuses tuned plans whose certificate does not verify.  Plan
cache entries carry none: every rewrite an optimized plan holds already
passed the pass pipeline's equivalence gate, which raises on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..identity import content_key
from ..lint import Finding, make_finding
from .equiv import (
    EQUIVALENT_VERDICTS,
    EquivalenceDecision,
    decide_equivalence,
)
from .normal import PlanNormalForm, normalize_plan

__all__ = [
    "CERT_VERSION",
    "EquivalenceCertificate",
    "CertificationResult",
    "certify",
    "certify_plans",
    "verify_certificate",
]

#: bump on any change to the normal-form grammar or the payload fields —
#: certificates from older versions are stale by definition (EQ004)
CERT_VERSION = 1

_PAYLOAD_FIELDS = (
    "version",
    "subject",
    "reference",
    "subject_digest",
    "reference_digest",
    "verdict",
)


@dataclass(frozen=True)
class EquivalenceCertificate:
    """One issued certificate: subject plan ≡ reference plan."""

    subject: str  # "System/model on graph" label of the certified plan
    reference: str  # label of the plan it was proved equivalent to
    subject_digest: str  # normal-form digest of the subject
    reference_digest: str  # normal-form digest of the reference
    verdict: str  # "equal" | "equivalent-unordered"
    version: int = CERT_VERSION

    def payload(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "subject": self.subject,
            "reference": self.reference,
            "subject_digest": self.subject_digest,
            "reference_digest": self.reference_digest,
            "verdict": self.verdict,
        }

    @property
    def cert_id(self) -> str:
        """The content address: sha256 over the canonical payload."""
        return content_key(self.payload(), compact=True)

    def as_dict(self) -> dict[str, Any]:
        doc = self.payload()
        doc["cert_id"] = self.cert_id
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "EquivalenceCertificate":
        return cls(
            subject=str(doc["subject"]),
            reference=str(doc["reference"]),
            subject_digest=str(doc["subject_digest"]),
            reference_digest=str(doc["reference_digest"]),
            verdict=str(doc["verdict"]),
            version=int(doc["version"]),
        )


@dataclass(frozen=True)
class CertificationResult:
    """Decision + (on equivalence) the issued certificate."""

    decision: EquivalenceDecision
    certificate: EquivalenceCertificate | None
    subject_nf: PlanNormalForm
    reference_nf: PlanNormalForm

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def certify(
    subject_nf: PlanNormalForm, reference_nf: PlanNormalForm
) -> CertificationResult:
    """Decide equivalence of two normal forms; issue a certificate if
    the verdict allows one (mismatch/unknown certify nothing)."""
    decision = decide_equivalence(reference_nf, subject_nf)
    certificate = None
    if decision.verdict in EQUIVALENT_VERDICTS:
        certificate = EquivalenceCertificate(
            subject=subject_nf.label,
            reference=reference_nf.label,
            subject_digest=subject_nf.digest,
            reference_digest=reference_nf.digest,
            verdict=decision.verdict,
        )
    return CertificationResult(
        decision=decision,
        certificate=certificate,
        subject_nf=subject_nf,
        reference_nf=reference_nf,
    )


def certify_plans(subject_plan: Any, reference_plan: Any) -> CertificationResult:
    """Normalize two live plans and certify the subject against the
    reference (the common entry point: optimized vs lowered, tuned vs
    safe-optimized)."""
    return certify(normalize_plan(subject_plan), normalize_plan(reference_plan))


def verify_certificate(
    doc: Any,
    *,
    subject_plan: Any | None = None,
    reference_plan: Any | None = None,
) -> list[Finding]:
    """Re-check a persisted certificate document (EQ004 findings).

    Returns an empty list iff the document is well formed, its content
    address matches its payload (not tampered), its version is current
    (not stale), its recorded verdict is one a certificate may carry,
    and — when live plans are supplied — the recorded digests still
    match the plans' re-derived normal forms.
    """
    if not isinstance(doc, dict):
        return [
            make_finding(
                "EQ004",
                "certificate is not a JSON object "
                f"(got {type(doc).__name__})",
            )
        ]
    missing = [k for k in (*_PAYLOAD_FIELDS, "cert_id") if k not in doc]
    if missing:
        return [
            make_finding(
                "EQ004",
                f"certificate is missing field(s) {missing} — truncated "
                "or hand-edited",
            )
        ]
    findings: list[Finding] = []
    payload = {k: doc[k] for k in _PAYLOAD_FIELDS}
    expected = content_key(payload, compact=True)
    if doc["cert_id"] != expected:
        findings.append(
            make_finding(
                "EQ004",
                "tampered certificate: content address "
                f"{str(doc['cert_id'])[:12]}.. does not match its payload "
                f"(expected {expected[:12]}..)",
            )
        )
    if doc["version"] != CERT_VERSION:
        findings.append(
            make_finding(
                "EQ004",
                f"stale certificate: version {doc['version']} != current "
                f"{CERT_VERSION} (normal-form grammar changed; re-certify)",
            )
        )
    if doc["verdict"] not in EQUIVALENT_VERDICTS:
        findings.append(
            make_finding(
                "EQ004",
                f"certificate records non-equivalent verdict "
                f"{doc['verdict']!r} — no such certificate is ever issued",
            )
        )
    if findings:
        return findings  # digests are meaningless under a broken envelope
    if subject_plan is not None:
        digest = normalize_plan(subject_plan).digest
        if digest != doc["subject_digest"]:
            findings.append(
                make_finding(
                    "EQ004",
                    "stale certificate: the subject plan's normal form "
                    f"({digest[:12]}..) no longer matches the certified "
                    f"digest ({str(doc['subject_digest'])[:12]}..)",
                )
            )
    if reference_plan is not None:
        digest = normalize_plan(reference_plan).digest
        if digest != doc["reference_digest"]:
            findings.append(
                make_finding(
                    "EQ004",
                    "stale certificate: the reference plan's normal form "
                    f"({digest[:12]}..) no longer matches the certified "
                    f"digest ({str(doc['reference_digest'])[:12]}..)",
                )
            )
    return findings
