"""Cross-system output identity holds by construction.

Every plan's output is the shared reference aggregation of its compute
step, so each system that computes the cell's own workload returns the
reference bytes, whatever pipeline it lowers to.  GNNAdvisor computes
over its degree-reordered graph, a different producer term, so its
output is held to ``allclose`` only.
"""

import numpy as np
import pytest

from repro.bench import BenchConfig, get_dataset, make_features
from repro.frameworks import (
    DGLSystem,
    FeatGraphSystem,
    GNNAdvisorSystem,
    TLPGNNEngine,
)
from repro.models import MODEL_NAMES, build_conv, reference_aggregate

SYSTEMS = {
    "DGL": DGLSystem(),
    "FeatGraph": FeatGraphSystem(),
    "TLPGNN": TLPGNNEngine(),
    "TLPGNN-no-fusion": TLPGNNEngine(fusion=False),
    "TLPGNN-no-two-level": TLPGNNEngine(two_level=False),
    "TLPGNN-no-hybrid": TLPGNNEngine(hybrid=False),
}


@pytest.fixture(scope="module")
def cr_cell():
    config = BenchConfig(max_edges=60_000)
    ds = get_dataset("CR", config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    refs = {m: reference_aggregate(build_conv(m, ds.graph, X)) for m in MODEL_NAMES}
    return ds, X, config.spec_for(ds), refs


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_output_is_the_reference_bytes(cr_cell, system, model):
    ds, X, spec, refs = cr_cell
    out = SYSTEMS[system].run(model, ds, X, spec).output
    assert np.array_equal(out, refs[model])


@pytest.mark.parametrize(
    "model", [m for m in MODEL_NAMES if GNNAdvisorSystem().supports(m)]
)
def test_reordered_output_is_close(cr_cell, model):
    ds, X, spec, refs = cr_cell
    out = GNNAdvisorSystem().run(model, ds, X, spec).output
    np.testing.assert_allclose(out, refs[model], rtol=1e-4, atol=1e-5)
