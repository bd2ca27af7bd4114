"""Prometheus/OpenMetrics text exposition of a metrics registry.

``repro metrics`` (and any embedding server) renders the
installed :class:`~repro.obs.metrics.MetricsRegistry` — or a JSONL
snapshot written by ``--metrics-out`` — in the Prometheus text format:

    # TYPE serve_latency_ms histogram
    serve_latency_ms_bucket{serve="...",le="0.512"} 41
    serve_latency_ms_bucket{serve="...",le="+Inf"} 64 # {rid="53"} 1.84
    serve_latency_ms_sum{serve="..."} 31.5
    serve_latency_ms_count{serve="..."} 64

Histogram buckets carry OpenMetrics **exemplars** (`# {rid="53"} value`)
so the p99 tail stays clickable back to concrete request ids.  Metric
and label names are sanitized to the Prometheus grammar; label values
are escaped.  Output is sorted (name, then labels) so two runs of the
same workload diff cleanly.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

__all__ = ["render_prometheus", "records_from_jsonl"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_FIRST_RE = re.compile(r"^[^a-zA-Z_:]")


def _sanitize_name(name: str) -> str:
    return _FIRST_RE.sub("_", _NAME_RE.sub("_", name))


def _escape_value(value) -> str:
    text = str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(labels: dict, extra: dict | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(
        f'{_sanitize_name(str(k))}="{_escape_value(v)}"'
        for k, v in sorted(items.items())
    )
    return "{" + body + "}"


def _fmt(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def records_from_jsonl(path: str | Path) -> list[dict]:
    """Load metric records from a ``dump_jsonl`` file.

    The JSONL sink appends one snapshot per dump; for each metric key the
    *last* record wins, so re-exposing a long-running audit log shows the
    final state rather than every historical value.
    """
    latest: dict[tuple, dict] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = (rec["name"], tuple(sorted(rec.get("labels", {}).items())))
            latest[key] = rec
    return [latest[k] for k in sorted(latest)]


def render_prometheus(source) -> str:
    """Render a registry (or its ``snapshot()`` record list) as
    Prometheus exposition text."""
    records = source if isinstance(source, list) else source.snapshot()
    by_name: dict[str, list[dict]] = {}
    for rec in records:
        by_name.setdefault(rec["name"], []).append(rec)
    lines: list[str] = []
    for name in sorted(by_name):
        group = by_name[name]
        pname = _sanitize_name(name)
        mtype = group[0].get("type", "gauge")
        lines.append(f"# TYPE {pname} {mtype}")
        for rec in group:
            labels = rec.get("labels", {})
            if rec.get("type") == "histogram":
                cumulative = 0
                for bucket in rec.get("buckets", []):
                    cumulative += bucket["count"]
                    le = bucket["le"]
                    le_txt = le if le == "+Inf" else _fmt(le)
                    line = (
                        f"{pname}_bucket{_labels(labels, {'le': le_txt})} "
                        f"{cumulative}"
                    )
                    ex = bucket.get("exemplar")
                    if ex is not None:
                        line += (
                            f' # {{rid="{_escape_value(ex["id"])}"}} '
                            f'{_fmt(ex["value"])}'
                        )
                    lines.append(line)
                lines.append(
                    f"{pname}_sum{_labels(labels)} {_fmt(rec.get('sum', 0.0))}"
                )
                lines.append(
                    f"{pname}_count{_labels(labels)} {_fmt(rec['value'])}"
                )
            else:
                lines.append(
                    f"{pname}{_labels(labels)} {_fmt(rec['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
