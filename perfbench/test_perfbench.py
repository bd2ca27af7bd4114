"""Tests of the benchmark itself: ``python -m pytest perfbench``.

They run real workers, so they take about two minutes.  The slower
layer-sensitivity test is ``python3 perfbench/sensitivity.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import worker  # noqa: E402
from layers import LAYERS, Instrument, _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_worker(workload: str, mode: str, seed: int = 3, seconds: float = 1.0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_and_workload():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert run.WORKLOADS == tuple(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s": "s", **worker.E2E_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.LAYER_UNITS
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_modeled_values_repeat_bit_for_bit(workload):
    first, second = (run_worker(workload, "measure") for _ in range(2))
    modeled = {k for k in first["metrics"] if k.startswith("modeled_")}
    assert len(modeled) == 5
    assert not first["failed"] and not first["problems"]
    for k in modeled:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reproduces_untraced_counts(workload):
    out = run_worker(workload, "trace")
    assert out["problems"] == [] and out["failed"] == []
    m = {k: v["value"] for k, v in out["metrics"].items()}
    shares = sum(m[f"{layer}.share"] for layer in LAYERS)
    assert 0.0 < shares <= 1.0 + 1e-9
    assert m["other.self_ms_per_op"] >= 0.0


def test_layer_entry_points_resolve_and_are_restored():
    originals = {p: _resolve(p)[2] for paths in LAYERS.values() for p in paths}
    with Instrument() as inst:
        for path, fn in originals.items():
            assert _resolve(path)[2] is not fn, path
        assert inst.layer_calls([]) == dict.fromkeys(LAYERS, 0)
    for path, fn in originals.items():
        assert _resolve(path)[2] is fn, path


def _cell(model: str):
    from repro.bench.harness import BenchConfig, make_features, run_system
    from repro.frameworks import SYSTEMS
    from repro.graph.datasets import load_dataset

    ds = load_dataset("CR", seed=5)
    X = make_features(ds.graph.num_vertices, 16, seed=5)
    cfg = BenchConfig(feat_dim=16, max_edges=60_000, seed=5)
    outs = {}
    for name, factory in SYSTEMS.items():
        res = run_system(factory(), model, ds, cfg, X=X, opt="off")
        if res is not None:
            outs[name] = res.output
    return ds, X, outs


@pytest.mark.parametrize("model", ["gcn", "gin", "sage", "gat"])
def test_reference_accepts_the_program_and_rejects_a_wrong_output(model):
    ds, X, outs = _cell(model)
    assert reference.check_outputs(model, ds.graph, X, outs) == []
    name = next(iter(outs))
    bad = dict(outs)
    bad[name] = outs[name].copy()
    bad[name][7, 3] += 1e-3 * (1.0 + abs(bad[name][7, 3]))
    assert reference.check_outputs(model, ds.graph, X, bad)


def test_reference_is_the_convolution_it_claims():
    # in-edges of a 3-vertex graph: 1->0, 2->0, 0->1; vertex 2 has none
    indptr = np.array([0, 2, 3, 3])
    indices = np.array([1, 2, 0])
    X = np.array([[1.0], [2.0], [4.0]], dtype=np.float32)
    gin = reference.reference_conv("gin", indptr, indices, X)
    assert gin[:, 0].tolist() == [7.0, 3.0, 4.0]
    sage = reference.reference_conv("sage", indptr, indices, X)
    assert sage[:, 0].tolist() == [3.0, 1.0, 0.0]
    gcn = reference.reference_conv("gcn", indptr, indices, X)
    d = np.array([2.0, 1.0, 0.0]) + 1.0
    want0 = 2 / np.sqrt(d[0] * d[1]) + 4 / np.sqrt(d[0] * d[2]) + 1 / d[0]
    assert gcn[0, 0] == pytest.approx(want0)


def test_serve_check_flags_broken_conservation():
    lat = SimpleNamespace(records=[1, 2], latencies_ms=lambda: np.array([0.1, 0.2]))
    good = SimpleNamespace(arrived=3, admitted=2, shed=1, completed=2,
                           num_batches=1, accountant=lat, p50_ms=0.1, p99_ms=0.2)
    assert reference.check_serve(good, 3) == []
    assert reference.check_serve(SimpleNamespace(**{**vars(good), "shed": 0}), 3)
    assert reference.check_serve(SimpleNamespace(**{**vars(good), "p99_ms": np.inf}), 3)


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(100))
    value, pct = worker.tail(xs)
    assert sum(x > value for x in xs) == worker.TAIL_BEYOND
    assert pct == pytest.approx(90.0)
    assert worker.tail([1.0, 2.0]) == (2.0, 100.0)
