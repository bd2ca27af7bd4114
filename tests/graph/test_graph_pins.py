"""Fingerprint pins: the Table-4 stand-ins keep byte-identical CSR arrays.

``tests/data/graph_pins.json`` records :meth:`CSRGraph.fingerprint` of
every Table-4 stand-in at ``max_edges=60000`` (default seed), of the
``degree_sort`` graph of each Figure-8 dataset, and of OA at
``max_edges=300000``, with the numpy version that drew them.  It was
written by the lexsort construction, before ``from_edge_list`` moved to
one keyed sort::

    PYTHONPATH=src python -m tests.graph.test_graph_pins --write

The edges come from numpy ``Generator`` streams, so a pin moves either
because numpy changed a stream or because the CSR construction changed.
A failure names the recorded and the running numpy, and runs the
constructor's lexsort-oracle test to tell the two apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.datasets import DATASET_ORDER, FIG8_SEVEN, load_dataset
from repro.graph.reorder import degree_sort

from . import test_csr

FIXTURE = Path(__file__).parent.parent / "data" / "graph_pins.json"


def pins() -> dict[str, str]:
    """Every pinned fingerprint, recomputed by the tree under test."""
    out = {}
    for abbr in DATASET_ORDER:
        graph = load_dataset(abbr, max_edges=60_000).graph
        out[f"{abbr}@60000"] = graph.fingerprint()
        if abbr in FIG8_SEVEN:
            out[f"{abbr}@60000/degree_sort"] = degree_sort(graph).graph.fingerprint()
    out["OA@300000"] = load_dataset("OA", max_edges=300_000).graph.fingerprint()
    return out


def _oracle_verdict() -> str:
    try:
        test_csr.test_keyed_sort_matches_lexsort_oracle()
    except Exception as exc:  # the property test failed, whatever it raised
        return f"the lexsort-oracle test fails ({type(exc).__name__}): the constructor is broken"
    return "the lexsort-oracle test passes, so a numpy stream likely moved"


def test_stand_ins_are_byte_identical():
    pinned = json.loads(FIXTURE.read_text())
    computed = pins()
    changed = sorted(
        name
        for name in pinned["fingerprints"].keys() | computed.keys()
        if pinned["fingerprints"].get(name) != computed.get(name)
    )
    if changed:
        pytest.fail(
            f"CSR fingerprints changed: {changed}; pinned under numpy "
            f"{pinned['numpy']}, ran under numpy {np.__version__}; "
            f"{_oracle_verdict()}"
        )


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(
        json.dumps(
            {"numpy": np.__version__, "fingerprints": pins()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
