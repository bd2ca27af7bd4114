"""Perf-regression engine: one policy table, one comparison, and a
per-metric trend store keyed by git rev.

Both perf gates reach the same comparison, :func:`compare_metrics`, under
the same table, :data:`DEFAULT_POLICIES`:

* ``repro diff BASE CAND`` compares two archived runs
  (:mod:`repro.obs.archive`) — a trend comparison of two points;
* ``repro regress`` recomputes the probes of :mod:`repro.bench.regress`
  at HEAD and compares them against the latest fingerprint-matching
  point of a :class:`TrendStore`.  One JSON file (committed to the repo
  as ``BENCH_serving.json`` / ``BENCH_table5.json`` / …) holds an
  append-only list of **trajectory points**, each stamped with the git
  revision, a config fingerprint, and a flat metric dict.

Every metric either gate compares is modeled — a deterministic function
of counters — so the bands are exact for integer counters and
float-noise for modeled floats: they absorb reassociated float math, not
run-to-run noise.  Directions make a gate one-sided where one exists: a
latency that *drops* is ``improved``; the same move in throughput
regresses; counters regress either way.

Points with different fingerprints (a different ``max_edges`` cap, seed,
or device spec) never compare — CI records at its own scale and stays
blind to developers' full-scale local points in the same file.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TREND_SCHEMA_VERSION",
    "MetricPolicy",
    "TrendDelta",
    "TrendDiff",
    "TrendStore",
    "DEFAULT_POLICIES",
    "FLOAT_NOISE",
    "compare_metrics",
    "git_rev",
    "policy_for",
]

#: bump when the trend-store layout changes incompatibly
TREND_SCHEMA_VERSION = 1


def git_rev(root: str | Path | None = None) -> str:
    """Short git revision of ``root`` (cwd by default); "unknown" when
    not a repository (trend points must never fail to record)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass(frozen=True)
class MetricPolicy:
    """Allowed relative drift of one metric plus the direction that
    counts as a regression."""

    #: band as a fraction of the baseline; 0 = exact
    rel: float = 0.0
    #: "lower" = lower is better (latency: increases regress);
    #: "higher" = higher is better (throughput: decreases regress);
    #: "both"   = any out-of-band drift regresses (counters)
    better: str = "both"

    def classify(self, baseline: float, candidate: float) -> str:
        """"ok" | "regressed" | "improved" for one metric move."""
        if abs(candidate - baseline) <= max(self.rel * abs(baseline), 1e-12):
            return "ok"
        if self.better == "both":
            return "regressed"
        worse = (
            candidate > baseline if self.better == "lower"
            else candidate < baseline
        )
        return "regressed" if worse else "improved"


#: modeled floats move only by reassociated float math; a real model
#: change moves them by orders of magnitude more than this
FLOAT_NOISE = 1e-9

_EXACT = MetricPolicy()
_TIME = MetricPolicy(FLOAT_NOISE, better="lower")
_RATE = MetricPolicy(FLOAT_NOISE, better="higher")
_RATIO = MetricPolicy(FLOAT_NOISE, better="both")

#: the one policy table of both gates; matched by exact name first, then
#: by the longest suffix after "_" (``TLPGNN_runtime_ms`` -> runtime_ms)
DEFAULT_POLICIES: dict[str, MetricPolicy] = {
    # ProfileReport.as_dict(): modeled times
    "runtime_ms": _TIME,
    "gpu_time_ms": _TIME,
    "launch_overhead_ms": _TIME,
    "preprocess_ms": _TIME,
    # ProfileReport.as_dict(): integer counters
    "kernel_launches": _EXACT,
    "mem_load_bytes": _EXACT,
    "mem_atomic_store_bytes": _EXACT,
    "mem_total_bytes": _EXACT,
    "global_mem_usage_bytes": _EXACT,
    # ProfileReport.as_dict(): modeled ratios
    "sm_utilization": _RATIO,
    "achieved_occupancy": _RATIO,
    "stall_long_scoreboard": _RATIO,
    "sectors_per_request": _RATIO,
    # probes: modeled latencies and the tuner's winner
    "p50_ms": _TIME,
    "p95_ms": _TIME,
    "p99_ms": _TIME,
    "mean_ms": _TIME,
    "tuned_ms": _TIME,
    # the fixed-config anchor is costed, not tuned, so it is symmetric
    "fixed_ms": _RATIO,
    # probes: rates
    "throughput_rps": _RATE,
    "speedup": _RATE,
    # probes: conservation and tuner-budget counters
    "completed": _EXACT,
    "shed": _EXACT,
    "iterations": _EXACT,
}

_FALLBACK_POLICY = _RATIO


def policy_for(metric: str) -> MetricPolicy:
    """The policy of ``metric``: exact name, longest suffix, fallback."""
    parts = metric.split("_")
    for i in range(len(parts)):
        suffix = "_".join(parts[i:])
        if suffix in DEFAULT_POLICIES:
            return DEFAULT_POLICIES[suffix]
    return _FALLBACK_POLICY


@dataclass(frozen=True)
class TrendDelta:
    """One metric compared across a baseline and a candidate."""

    metric: str
    baseline: float
    candidate: float
    policy: MetricPolicy
    verdict: str  # "ok" | "regressed" | "improved"

    @property
    def rel_delta(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else float("inf")
        return (self.candidate - self.baseline) / abs(self.baseline)

    def describe(self) -> str:
        tag = {"ok": "ok", "regressed": "REGRESSED", "improved": "improved"}[
            self.verdict
        ]
        return (
            f"{self.metric:<28} {self.baseline:>14.6g} -> "
            f"{self.candidate:>14.6g}  ({self.rel_delta:+.2%})  [{tag}]"
        )


@dataclass
class TrendDiff:
    """A candidate's metrics against a baseline's, one verdict each."""

    deltas: list[TrendDelta]
    missing_metrics: list[str]
    #: lines rendered above the per-metric table (what was compared)
    header: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[TrendDelta]:
        return [d for d in self.deltas if d.verdict == "regressed"]

    @property
    def improvements(self) -> list[TrendDelta]:
        return [d for d in self.deltas if d.verdict == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_metrics

    def render(self) -> str:
        lines = list(self.header)
        for d in self.deltas:
            lines.append("  " + d.describe())
        for m in self.missing_metrics:
            lines.append(f"  {m:<28} missing from candidate  [REGRESSED]")
        if self.ok:
            verdict = "PASS: no regressions"
            if self.improvements:
                verdict += (
                    f" ({len(self.improvements)} improvement(s) — "
                    "consider re-recording the baseline)"
                )
        else:
            failed = [d.metric for d in self.regressions] + self.missing_metrics
            verdict = (
                f"FAIL: {len(failed)} metric(s) regressed: " + ", ".join(failed)
            )
        lines.append(verdict)
        return "\n".join(lines)


def compare_metrics(baseline: dict, candidate: dict) -> TrendDiff:
    """Classify every numeric baseline metric's move to the candidate.

    Non-numeric baseline values (system/model/dataset names) are skipped;
    a metric the candidate lacks is a regression; metrics only the
    candidate has are ignored.
    """
    deltas: list[TrendDelta] = []
    missing: list[str] = []
    for metric, base_value in sorted(baseline.items()):
        if not isinstance(base_value, (int, float)):
            continue
        if metric not in candidate:
            missing.append(metric)
            continue
        policy = policy_for(metric)
        base, cand = float(base_value), float(candidate[metric])
        deltas.append(
            TrendDelta(metric, base, cand, policy, policy.classify(base, cand))
        )
    return TrendDiff(deltas=deltas, missing_metrics=missing)


class TrendStore:
    """Append-only trajectory of one benchmark's metrics, one JSON file."""

    def __init__(self, path: str | Path, *, name: str | None = None):
        self.path = Path(path)
        stem = self.path.stem
        self.name = name or (
            stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem
        )

    # ------------------------------------------------------------------
    def load(self) -> dict:
        """The store document (an empty skeleton when the file is absent)."""
        if not self.path.exists():
            return {
                "schema_version": TREND_SCHEMA_VERSION,
                "name": self.name,
                "points": [],
            }
        with open(self.path) as fh:
            doc = json.load(fh)
        version = doc.get("schema_version")
        if version != TREND_SCHEMA_VERSION:
            raise ValueError(
                f"{self.path}: trend schema {version!r} != supported "
                f"{TREND_SCHEMA_VERSION}"
            )
        if "points" not in doc:
            raise ValueError(f"{self.path}: not a trend store")
        return doc

    def points(self, *, fingerprint: str | None = None) -> list[dict]:
        pts = self.load()["points"]
        if fingerprint is None:
            return pts
        return [p for p in pts if p.get("fingerprint") == fingerprint]

    def latest(self, *, fingerprint: str | None = None) -> dict | None:
        pts = self.points(fingerprint=fingerprint)
        return pts[-1] if pts else None

    # ------------------------------------------------------------------
    def record(
        self,
        metrics: dict,
        *,
        fingerprint: str,
        rev: str | None = None,
        meta: dict | None = None,
        timestamp: float | None = None,
    ) -> dict:
        """Append one trajectory point; returns the recorded point."""
        clean = {}
        for key, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"trend metrics must be numeric: {key}={value!r}"
                )
            clean[key] = float(value)
        point = {
            "rev": rev if rev is not None else git_rev(self.path.parent),
            "recorded_unix": time.time() if timestamp is None else timestamp,
            "fingerprint": fingerprint,
            "metrics": clean,
        }
        if meta:
            point["meta"] = meta
        doc = self.load()
        doc["points"].append(point)
        self.path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return point

    # ------------------------------------------------------------------
    def compare(
        self,
        candidate_metrics: dict,
        *,
        fingerprint: str,
        rev: str | None = None,
    ) -> TrendDiff | None:
        """HEAD metrics vs the latest matching point (None = no baseline)."""
        baseline = self.latest(fingerprint=fingerprint)
        if baseline is None:
            return None
        diff = compare_metrics(baseline["metrics"], candidate_metrics)
        head = rev if rev is not None else git_rev(self.path.parent)
        diff.header.append(
            f"trend {self.name}: baseline rev "
            f"{baseline.get('rev', 'unknown')} -> HEAD ({head})"
        )
        return diff
