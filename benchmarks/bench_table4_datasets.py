"""Table 4: graph benchmark statistics (paper spec vs loaded stand-ins)."""

from repro.bench import table4

from conftest import run_and_report


def test_table4_datasets(benchmark, config):
    run_and_report(benchmark, table4, config)
