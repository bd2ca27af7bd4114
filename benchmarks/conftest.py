"""Benchmark configuration shared by all table/figure benches.

Each benchmark regenerates one table or figure of the paper through
pytest-benchmark (single-round pedantic timing — a regeneration is a full
experiment, not a microbenchmark), attaches the produced rows to
``benchmark.extra_info`` so the numbers land in the benchmark report, and
asserts the shape claims (``repro.bench.CLAIMS``) that read its result.

Scale knobs: ``REPRO_MAX_EDGES`` (default 2_000_000) bounds the synthetic
dataset stand-ins; the modeled device shrinks with the data so modeled
milliseconds stay comparable with the paper's full-size numbers.  A claim
stated at another scale is skipped.
"""

import os

import pytest

from repro.bench import BenchConfig, judge_result

MAX_EDGES = int(os.environ.get("REPRO_MAX_EDGES", 2_000_000))
SEED = int(os.environ.get("REPRO_SEED", 7))


@pytest.fixture(scope="session")
def config() -> BenchConfig:
    return BenchConfig(max_edges=MAX_EDGES, seed=SEED)


#: rendered tables/figures are persisted here on every benchmark run
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def run_and_report(benchmark, fn, config):
    """Run a regenerator once under the benchmark clock, print it, persist
    the rendered table to ``benchmarks/results/``, and assert the claims
    stated at ``config``'s scale that read its result, if any do."""
    result = benchmark.pedantic(fn, args=(config,), rounds=1, iterations=1)
    rendered = result.render()
    print()
    print(rendered)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    slug = result.exp_id.lower().replace(" ", "")
    with open(os.path.join(RESULTS_DIR, f"{slug}.txt"), "w") as fh:
        fh.write(rendered + "\n")
    benchmark.extra_info["exp_id"] = result.exp_id
    benchmark.extra_info["rows"] = result.rows
    verdicts = judge_result(fn, result, config)
    failed = {v.claim_id: v.detail for v in verdicts if not v.passed}
    assert not failed
    return result
