"""Golden byte-equivalence + re-lint cleanliness of the pass pipeline.

The optimizer's structural-safety claim: for every supported
(system, model) cell, running the plan after `optimize_plan` produces
output bytes identical to the unoptimized plan, and the rewritten plan
carries no ERROR-severity lint finding the input plan did not.
"""

import numpy as np
import pytest

from repro.bench.harness import BenchConfig, get_dataset, make_features
from repro.frameworks import SYSTEMS
from repro.lint import lint_plan
from repro.opt import OPT_LEVELS, error_keys, optimize_plan
from repro.plan import execute_plan

MODELS = ("gcn", "gin", "sage", "gat")


def _cells():
    out = []
    for sysname in sorted(SYSTEMS):
        system = SYSTEMS[sysname]()
        for model in MODELS:
            if system.supports(model):
                out.append((sysname, model))
    return out


@pytest.fixture(scope="module")
def cell_env():
    config = BenchConfig()
    ds = get_dataset("CR", config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    return ds, X, config.spec_for(ds)


@pytest.mark.parametrize(
    "sysname,model", _cells(), ids=[f"{s}/{m}" for s, m in _cells()]
)
@pytest.mark.parametrize("level", ["safe", "search"])
def test_optimized_plan_is_byte_identical_and_lints_clean(
    cell_env, sysname, model, level
):
    ds, X, spec = cell_env
    plan = SYSTEMS[sysname]().lower(model, ds, X, spec)
    baseline_errors = error_keys(plan, spec)
    optimized, records = optimize_plan(plan, spec, level=level, dataset=ds)
    # no new ERROR-severity findings (the pipeline would have raised, but
    # assert the end state independently)
    new = {
        f.key()
        for f in lint_plan(optimized, spec).errors
    } - baseline_errors
    assert not new, new
    # byte-for-byte output equivalence
    assert np.array_equal(execute_plan(plan), execute_plan(optimized))
    # the records cover every pass that ran
    assert all(r.after_ms <= r.before_ms or not r.applied for r in records)


def test_off_level_is_identity(cell_env):
    ds, X, spec = cell_env
    plan = SYSTEMS["DGL"]().lower("gcn", ds, X, spec)
    optimized, records = optimize_plan(plan, spec, level="off", dataset=ds)
    assert optimized is plan
    assert records == []


def test_unknown_level_rejected(cell_env):
    ds, X, spec = cell_env
    plan = SYSTEMS["DGL"]().lower("gcn", ds, X, spec)
    with pytest.raises(ValueError):
        optimize_plan(plan, spec, level="aggressive", dataset=ds)
    assert "aggressive" not in OPT_LEVELS


def test_safe_level_shrinks_dgl_pipeline(cell_env):
    """The headline rewrite: DGL's 6-launch gcn pipeline loses launches."""
    ds, X, spec = cell_env
    plan = SYSTEMS["DGL"]().lower("gcn", ds, X, spec)
    optimized, _ = optimize_plan(plan, spec, level="safe", dataset=ds)
    assert len(optimized.ops) < len(plan.ops)


def test_run_api_levels_agree_bytewise(cell_env):
    """`GNNSystem.run(opt=...)` returns identical outputs at every level."""
    ds, X, spec = cell_env
    outputs = {}
    for level in ("off", "safe", "search"):
        system = SYSTEMS["TLPGNN"]()
        outputs[level] = system.run("gcn", ds, X, spec, opt=level).output
    base = outputs["off"]
    for level, out in outputs.items():
        assert np.array_equal(base, out), level


def test_run_rejects_unknown_opt_level(cell_env):
    ds, X, spec = cell_env
    with pytest.raises(ValueError):
        SYSTEMS["TLPGNN"]().run("gcn", ds, X, spec, opt="fastest")
