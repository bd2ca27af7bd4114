"""Write your own conv: an edge-weighted max-pool convolution.

The UDF layer (``repro.mp``) makes the model zoo open: a convolution is a
``send`` term over edges plus a ``recv`` reduction, and everything
downstream — framework lowering, kernel effect tables, per-lane access
patterns, lint, the optimizer, the auto-tuner, and the serving stack — is
*derived* from the terms, never hand-declared per model.

This example registers a conv that exists nowhere in the paper:

    out[u] = max over in-edges (v -> u) of  w(v,u) * X[v]

(an edge-weighted max-pool: per-edge similarity scores gate each
neighbour's features, and the strongest message wins).  One ``register``
call makes the name runnable end to end:

    python examples/custom_conv.py
"""

import numpy as np

from repro.bench import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import SYSTEMS
from repro.lint import lint_plan
from repro.models.convspec import reference_aggregate
from repro.mp import (
    EdgeScalar,
    MessageSpec,
    ReduceSpec,
    build_model,
    register,
    unregister,
)
from repro.opt import AutoTuner
from repro.serve import ServableModel, ServeConfig, serve_trace

MODEL = "ewmaxpool"


def edge_scores(graph) -> np.ndarray:
    """Deterministic per-edge similarity scores (stand-in for learned
    gates or precomputed cosine similarities)."""
    rng = np.random.default_rng(42)
    return rng.uniform(0.5, 1.5, graph.num_edges).astype(np.float32)


def main() -> None:
    config = BenchConfig(feat_dim=32)
    dataset = get_dataset("CR", config)
    graph = dataset.graph
    spec = config.spec_for(dataset)
    X = make_features(graph.num_vertices, config.feat_dim, seed=config.seed)

    # -- 1. the whole model definition ---------------------------------
    register(
        MODEL,
        lambda: (
            MessageSpec(
                feature="src",
                scale=EdgeScalar(values=edge_scores(graph), name="score"),
            ),
            ReduceSpec(op="max"),
        ),
        replace=True,
    )
    model = build_model(MODEL, graph, X)
    print(f"registered: {model.signature()}")

    # the closed algebra gives exact reference semantics for free
    ref = reference_aggregate(model.workload())

    # -- 2. derived support matrix + lint ------------------------------
    # no per-model branches anywhere: each framework decides from the
    # spec's terms (a max reduce has no cuSPARSE SpMM or atomic-scatter
    # lowering, so DGL and GNNAdvisor correctly decline)
    plans = {}
    for name in sorted(SYSTEMS):
        system = SYSTEMS[name]()
        if not system.supports(MODEL):
            print(f"{name:>10}: declined (derived from the spec terms)")
            continue
        plan = system.lower(MODEL, dataset, X, spec)
        report = lint_plan(plan, spec)
        errors = [f for f in report.findings if f.severity == "error"]
        assert not errors, report.render()
        print(
            f"{name:>10}: {plan.num_kernels} kernel(s), lint clean "
            f"({len(report.findings)} note(s)) — derived effect/access "
            "tables"
        )
        plans[name] = plan

    # -- 3. execute everywhere, through the optimizer ------------------
    outputs = {}
    for name in plans:
        res = run_system(SYSTEMS[name](), MODEL, dataset, config, X=X,
                         opt="search")
        outputs[name] = res.output
        print(f"{name:>10}: {res.runtime_ms:.3f} ms (opt=search)")
    for name, out in outputs.items():
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)
    print("all supporting systems match the reference max-pool semantics")

    # -- 4. auto-tune: the custom conv ties or beats the paper config --
    result = AutoTuner(budget=16, seed=config.seed).tune(
        SYSTEMS["TLPGNN"](), MODEL, dataset, X, spec
    )
    knobs = ", ".join(f"{k}={v}" for k, v in sorted(result.best_knobs.items()))
    print(
        f"tuned TLPGNN/{MODEL}: fixed {result.fixed_ms:.3f} ms -> "
        f"{result.tuned_ms:.3f} ms ({result.speedup_vs_fixed:.3f}x; {knobs})"
    )
    assert result.tuned_ms <= result.fixed_ms, "tuner must tie or win"

    # -- 5. serve it ---------------------------------------------------
    servable = ServableModel(
        SYSTEMS["TLPGNN"](), MODEL, dataset,
        feat_dim=config.feat_dim, spec=spec, seed=config.seed, opt="search",
    )
    report = serve_trace(
        servable,
        ServeConfig(
            rate_hz=0.5 / servable.offline_runtime_s,
            num_requests=64,
            max_batch=4,
            num_streams=2,
            max_concurrent=spec.max_concurrent_kernels,
            seed=config.seed,
        ),
    )
    print(report.summary())
    assert report.completed > 0 and report.arrived == (
        report.admitted + report.shed + report.refused
    )
    unregister(MODEL)
    print("custom conv: registered -> linted -> optimized -> tuned -> served")


if __name__ == "__main__":
    main()
