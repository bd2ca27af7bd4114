"""Digest pins: every content key of a cell stays byte-identical.

``tests/data/cell_key_pins.json`` was written by :func:`pins` against the
tree *before* the key builders moved into :mod:`repro.identity`::

    PYTHONPATH=src python -m tests.test_cell_key_pins --write

The three ``plan.*`` digests were written again when the plan-cache key
dropped the feature bytes for their shape and dtype, and the two
``tune.*`` digests when ``TUNER_VERSION`` went to 2 (the tuner's decision
rule changed); the other six are the original pins.  It pins the plan-cache key (no optimizer, ``safe``, and ``search`` with
tuned knobs), the tuned-store key, the archive fingerprint (with and
without the graph), two verifier normal-form digests and one certificate
``cert_id``.  The cells use no RNG: a fixed 10-vertex CSR graph and
features from ``np.arange``, whose float32 bytes are exact on any numpy
build.  A failing pin means a persisted key changed: stored tuned plans,
archives and certificates would stop matching.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.frameworks import SYSTEMS
from repro.gpusim.config import A100, V100
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, Dataset
from repro.obs.archive import config_fingerprint
from repro.opt.tuner import tuning_key
from repro.plan.cache import plan_fingerprint
from repro.verify import certify_plans, normalize_plan

FIXTURE = Path(__file__).parent / "data" / "cell_key_pins.json"

#: knob dicts as systems report them (None and float values included)
KNOBS = {"dispatch_seconds": None, "assignment": "hybrid", "step": 8}
TUNED = {
    "kernel": "tlpgnn",
    "assignment": "software",
    "group_size": 16,
    "register_cache": False,
    "warps_per_block": 8,
    "step": 4,
}


def _cell():
    graph = CSRGraph(
        indptr=np.array([0, 3, 5, 6, 8, 9, 10, 12, 13, 14, 16]),
        indices=np.array([1, 2, 3, 0, 2, 4, 0, 6, 7, 8, 9, 3, 1, 5, 8, 0]),
        num_vertices=10,
        name="pin",
    )
    X = np.arange(10 * 8, dtype=np.float32).reshape(10, 8) * 0.25
    dataset = Dataset(graph=graph, spec=DATASETS["CR"], scale=0.5)
    return graph, X, dataset


def pins() -> dict[str, str]:
    """Every pinned digest, recomputed by the tree under test."""
    graph, X, ds = _cell()
    X_gin = X[:, :4] + 1.0
    plan_base = dict(
        system="TLPGNN", model="gcn", graph=graph, X=X, spec=V100,
        knobs=KNOBS, dataset=ds,
    )
    out = {
        "plan.off": plan_fingerprint(**plan_base),
        "plan.safe": plan_fingerprint(
            **plan_base,
            opt={"level": "safe", "tuner_version": 1, "tuned": None},
        ),
        "plan.search.tuned": plan_fingerprint(
            system="DGL", model="gin", graph=graph, X=X_gin, spec=A100,
            opt={"level": "search", "tuner_version": 1, "tuned": TUNED},
        ),
        "tune.dataset": tuning_key(
            system="TLPGNN", model="gcn", graph=graph, X=X, spec=V100,
            dataset=ds,
        ),
        "tune.graph": tuning_key(
            system="TLPGNN", model="gin", graph=graph, X=X_gin, spec=A100,
        ),
        "config.bare": config_fingerprint(dataset="CR", seed=7, feat_dim=8),
        "config.spec": config_fingerprint(
            dataset="CR", seed=7, feat_dim=8, max_edges=60000, spec=V100,
            model="gcn", system="TLPGNN",
        ),
        "config.graph": config_fingerprint(
            dataset="CR", seed=7, feat_dim=8, max_edges=60000, spec=V100,
            model="gcn", system="TLPGNN", graph=graph,
        ),
    }
    system = SYSTEMS["TLPGNN"]()
    gcn = system.lower("gcn", ds, X, V100)
    out["normal.gcn"] = normalize_plan(gcn).digest
    out["normal.gin"] = normalize_plan(system.lower("gin", ds, X_gin, V100)).digest
    cert = certify_plans(gcn, gcn).certificate
    assert cert is not None
    out["cert.gcn"] = cert.cert_id
    return out


def test_every_key_is_byte_identical():
    pinned = json.loads(FIXTURE.read_text())
    computed = pins()
    changed = sorted(
        name
        for name in pinned.keys() | computed.keys()
        if pinned.get(name) != computed.get(name)
    )
    assert not changed, (
        f"content keys changed: {changed}; persisted stores, archives and "
        "certificates keyed by them would stop matching"
    )


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(json.dumps(pins(), indent=1, sort_keys=True) + "\n")
