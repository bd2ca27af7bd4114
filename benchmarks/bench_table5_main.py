"""Table 5: the main comparison — 4 models x 11 datasets x 4 systems."""

import os

from repro.bench import table5
from repro.bench.regress import default_store_path, record_point

from conftest import run_and_report

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_table5_main(benchmark, config):
    run_and_report(benchmark, table5, config)


def test_record_table5_trajectory_point(config):
    """Append this run's table5-probe metrics to the BENCH_table5.json
    trend store (``repro regress`` compares HEAD against it)."""
    point = record_point(
        "table5", config, store_path=default_store_path("table5", REPO_ROOT)
    )
    assert point["metrics"]["speedup"] > 1.0
    print(
        f"\nrecorded table5 trajectory point at rev {point['rev']} "
        f"({len(point['metrics'])} metrics)"
    )
