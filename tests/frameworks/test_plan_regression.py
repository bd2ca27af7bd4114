"""Byte-identity regression against the pre-refactor golden fixture.

``tests/data/golden_plan_refactor.json`` was captured from the
per-framework run loops *before* the compile/execute split: 24 cells
(4 systems x gcn/gat x CS/CR/PD, default :class:`BenchConfig`), each
pinning the output sha256 and the full modeled metric dict
(``preprocess_ms`` is not pinned).  The shared lower -> execute ->
analyze pipeline must reproduce every cell exactly.  The fixture's
``environment`` entry names the numpy, scipy and BLAS builds the hashes
were captured under; every mismatch message prints it next to the
running stack, so a drift explains itself.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.bench.harness import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import DGLSystem, FeatGraphSystem, GNNAdvisorSystem, TLPGNNEngine

GOLDEN = Path(__file__).parent.parent / "data" / "golden_plan_refactor.json"
SRC = Path(__file__).resolve().parents[2] / "src"
SYSTEMS = {
    "DGL": DGLSystem,
    "GNNAdvisor": GNNAdvisorSystem,
    "FeatGraph": FeatGraphSystem,
    "TLPGNN": TLPGNNEngine,
}


def _golden():
    return json.loads(GOLDEN.read_text())


def _cells():
    return sorted((k, v) for k, v in _golden().items() if k != "environment")


def _environment():
    """The numpy / scipy / BLAS builds this process runs on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '?')}"
    except TypeError:  # numpy < 1.25 has no machine-readable build config
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def _drift(key, what):
    return (
        f"{key}: {what} drifted (pinned under {_golden()['environment']}, "
        f"ran under {_environment()})"
    )


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("key,want", _cells(), ids=[k for k, _ in _cells()])
def test_cell_matches_golden(key, want):
    sysname, model, abbr = key.split("/")
    config = BenchConfig()
    ds = get_dataset(abbr, config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    res = run_system(SYSTEMS[sysname](), model, ds, config, X=X)

    if want is None:
        assert res is None, f"{key}: expected a dash cell"
        return
    assert res is not None, f"{key}: expected a result, got a dash"

    assert _sha256(res.output) == want["output_sha256"], _drift(key, "output")

    got = res.report.as_dict()
    got.pop("preprocess_ms", None)
    assert got == want["metrics"], _drift(key, "modeled metrics")


_GAT_PD = """
import hashlib
import numpy as np
from repro.bench.harness import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import TLPGNNEngine
config = BenchConfig()
ds = get_dataset("PD", config)
X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
out = run_system(TLPGNNEngine(), "gat", ds, config, X=X).output
print(hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest())
"""


def test_gat_output_independent_of_blas_threads():
    hashes = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(
                [str(SRC), os.environ.get("PYTHONPATH", "")]
            ),
        }
        proc = subprocess.run(
            [sys.executable, "-c", _GAT_PD], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        hashes[threads] = proc.stdout.strip()
    assert hashes["1"] == hashes["2"], hashes
