"""One identity for a cell: the shared key builders and their memos.

:mod:`repro.identity` owns every content key.  These tests pin what the
refactor onto it promised beyond byte identity (that is
``test_cell_key_pins.py``): the spec payload and the verifier's array
digests are computed once per owner object, an explicit ``rng`` leaves a
cell without a key in ``lower`` as in ``run``, and the committed
``BENCH_*.json`` trajectories still match their probes' fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import repro.identity as identity
import repro.verify.normal as normal
from repro.bench.harness import BenchConfig, get_dataset, make_features
from repro.bench.regress import PROBES
from repro.frameworks import SYSTEMS
from repro.gpusim.config import V100
from repro.opt import AutoTuner, TunedPlanStore, optimize_plan, set_tuned_store
from repro.verify import normalize_plan

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cr():
    config = BenchConfig(max_edges=60000, seed=7)
    ds = get_dataset("CR", config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    return ds, X, config.spec_for(ds)


@pytest.fixture
def hashed(monkeypatch):
    """Every array the identity module actually hashes, in call order."""
    arrays: list[np.ndarray] = []
    real = identity.array_digest

    def counting(array, **kwargs):
        arrays.append(array)
        return real(array, **kwargs)

    monkeypatch.setattr(identity, "array_digest", counting)
    return arrays


class TestSpecPayload:
    def test_is_asdict_built_once_per_spec(self):
        spec = V100.with_overrides(num_sms=40)
        payload = identity.spec_payload(spec)
        assert payload == asdict(spec)
        assert identity.spec_payload(spec) is payload

    def test_memo_is_per_object_not_per_equality(self):
        # equal specs whose fields differ in type serialize differently,
        # so an equality-keyed memo would make keys depend on call order
        as_int = V100.with_overrides(clock_hz=1_380_000_000)
        as_float = V100.with_overrides(clock_hz=1.38e9)
        assert as_int == as_float
        assert identity.content_key(
            identity.spec_payload(as_int)
        ) != identity.content_key(identity.spec_payload(as_float))

    def test_replace_copy_starts_without_the_memo(self):
        spec = V100.with_overrides(num_sms=20)
        identity.spec_payload(spec)
        moved = replace(spec, num_sms=10)
        assert identity.spec_payload(moved)["num_sms"] == 10


def test_split_cell_of_a_dataset_and_of_a_bare_graph(cr):
    ds, _, _ = cr
    assert identity.split_cell(ds) == (ds.graph, ds)
    assert identity.split_cell(ds.graph) == (ds.graph, None)


class TestVerifierDigests:
    @pytest.mark.parametrize("model", ["gcn", "gat"])
    def test_normalizing_twice_hashes_each_array_once(self, cr, hashed, model):
        ds, X, spec = cr
        plan = SYSTEMS["TLPGNN"]().lower(model, ds, X, spec)
        first = normalize_plan(plan)
        assert hashed, "the first normal form hashes the workload's arrays"
        assert len({id(a) for a in hashed}) == len(hashed)
        count = len(hashed)
        assert normalize_plan(plan) == first
        assert len(hashed) == count

    def test_replaced_workload_is_hashed_afresh(self, cr):
        ds, X, spec = cr
        plan = SYSTEMS["TLPGNN"]().lower("gcn", ds, X, spec)
        w = plan.compute.workload
        before = normalize_plan(plan).terms[0].feature
        doubled = replace(w, X=w.X * 2)
        assert identity.owned_digest(doubled, "X") != before
        assert identity.owned_digest(w, "X") == before

    def test_opt_tune_op_hashes_features_once_per_workload(
        self, cr, hashed, monkeypatch
    ):
        """One perfbench opt-tune op: tune + warm replay (TLPGNN), then
        search-level optimization (DGL, FeatGraph)."""
        ds, X, spec = cr
        owners: list = []  # kept alive, so their ids stay distinct
        real = normal.owned_digest

        def recording(owner, name):
            if name == "X":
                owners.append(owner)
            return real(owner, name)

        monkeypatch.setattr(normal, "owned_digest", recording)
        previous = set_tuned_store(TunedPlanStore())
        try:
            tlp = SYSTEMS["TLPGNN"]()
            AutoTuner(budget=8, seed=0).tune(tlp, "gcn", ds, X, spec)
            tlp.run("gcn", ds, X, spec, opt="search")
            for name in ("DGL", "FeatGraph"):
                plan = SYSTEMS[name]().lower("gcn", ds, X, spec)
                optimize_plan(plan, spec, level="search", dataset=ds)
        finally:
            set_tuned_store(previous)
        workloads = {id(o): o for o in owners}
        feature_hashes = [
            a for a in hashed
            if any(a is w.X for w in workloads.values())
        ]
        assert len(owners) > len(workloads), "normal forms share workloads"
        assert len(feature_hashes) <= len(workloads)


def test_lower_and_run_share_one_key(cr):
    ds, X, spec = cr
    system = SYSTEMS["TLPGNN"]()
    keyed = system.lower("gat", ds, X, spec)
    assert keyed.fingerprint is not None
    assert system.run("gat", ds, X, spec).plan.fingerprint == keyed.fingerprint


#: the fingerprints of the committed BENCH_<probe>.json trajectory points
#: that CI's ``repro --max-edges 60000 --seed 7 regress`` compares against
COMMITTED = {
    "serving": "4f4c909031aaee89",
    "table5": "870675221056984a",
    "autotune": "4453d3c4212965de",
}


@pytest.mark.parametrize("probe", sorted(COMMITTED))
def test_committed_probe_fingerprints_still_match(probe):
    result = PROBES[probe](BenchConfig(max_edges=60000, seed=7))
    assert result.fingerprint == COMMITTED[probe]
    doc = json.loads((ROOT / f"BENCH_{probe}.json").read_text())
    assert COMMITTED[probe] in {p["fingerprint"] for p in doc["points"]}, (
        f"BENCH_{probe}.json has no point at the probe's fingerprint: "
        "repro regress would skip it"
    )
