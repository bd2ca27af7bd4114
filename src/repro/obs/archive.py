"""Persistent archive of profiled runs.

Every archived run is one JSON file holding a schema version, a **config
fingerprint** (dataset, seed, feat_dim, max_edges, and the full GPUSpec —
two runs are only comparable when their fingerprints match; one
projection of the cell identity that :mod:`repro.identity` owns), and
the full :meth:`~repro.gpusim.profiler.ProfileReport.as_dict` metric set.

``python -m repro diff baseline.json candidate.json`` compares two
archived runs as a two-point trend comparison: the same
:func:`~repro.obs.trend.compare_metrics` and policy table that
``repro regress`` uses, so integer counters must match exactly, modeled
floats within float noise, and a modeled speed-up passes as
``improved``.  That is what lets a perf PR *prove* its speedup (or catch
an accidental counter drift) against an archived baseline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..identity import content_key, spec_payload

__all__ = [
    "SCHEMA_VERSION",
    "ProfileArchive",
    "config_fingerprint",
    "load_run",
]

#: bump when the archive file layout changes incompatibly
SCHEMA_VERSION = 1


def config_fingerprint(
    *, dataset: str, seed: int, feat_dim: int, max_edges: int | None = None,
    spec=None, model: str | None = None, system: str | None = None,
    graph=None,
) -> str:
    """Stable hash of everything that determines a run's counters.

    ``graph`` (a :class:`~repro.graph.csr.CSRGraph`) optionally mixes the
    loaded graph's content hash into the fingerprint, so two runs only
    compare when they processed byte-identical topology — not merely the
    same dataset name.  Omitting it keeps the historical hash, so archives
    recorded before content fingerprinting stay diffable.
    """
    payload = {
        "dataset": dataset,
        "seed": seed,
        "feat_dim": feat_dim,
        "max_edges": max_edges,
        "model": model,
        "system": system,
        "spec": spec_payload(spec) if spec is not None else None,
    }
    if graph is not None:
        payload["graph"] = graph.fingerprint()
    return content_key(payload)[:16]


def load_run(path: str | Path) -> dict:
    """Load and schema-check one archived run."""
    with open(path) as fh:
        entry = json.load(fh)
    version = entry.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: archive schema {version!r} != supported {SCHEMA_VERSION}"
        )
    if "metrics" not in entry or "fingerprint" not in entry:
        raise ValueError(f"{path}: not a profile-archive entry")
    return entry


class ProfileArchive:
    """Directory of archived profile runs (one JSON file per run)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def record(
        self,
        report,
        *,
        seed: int,
        feat_dim: int,
        max_edges: int | None = None,
        spec=None,
        graph=None,
        extra: dict | None = None,
    ) -> Path:
        """Persist one :class:`ProfileReport`; returns the file path."""
        config = {
            "system": report.system, "model": report.model,
            "dataset": report.dataset, "seed": seed, "feat_dim": feat_dim,
            "max_edges": max_edges,
        }
        fp = config_fingerprint(**config, spec=spec, graph=graph)
        entry = {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": fp,
            "recorded_unix": time.time(),
            "config": {
                **config,
                "spec": spec_payload(spec) if spec is not None else None,
            },
            "metrics": report.as_dict(),
        }
        if extra:
            entry["extra"] = extra
        stem = f"{report.system}-{report.model}-{report.dataset}-{fp}".lower()
        n = len(list(self.root.glob(f"{stem}-*.json")))
        path = self.root / f"{stem}-{n:03d}.json"
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        return path

    def runs(self, *, fingerprint: str | None = None) -> list[Path]:
        """Archived run files, oldest first (by recording order)."""
        paths = sorted(self.root.glob("*.json"))
        if fingerprint is None:
            return paths
        return [p for p in paths if load_run(p)["fingerprint"] == fingerprint]

    def latest(self, *, fingerprint: str | None = None) -> Path | None:
        paths = self.runs(fingerprint=fingerprint)
        return paths[-1] if paths else None
