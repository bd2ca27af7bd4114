"""Table 2: coalesced memory access — one-thread vs half-warp per vertex."""

from repro.bench import table2

from conftest import run_and_report


def test_table2_coalescing(benchmark, config):
    run_and_report(benchmark, table2, config)
