"""Table 3: kernel-launch impact — DGL (18) vs 3-kernel vs 1-kernel GAT."""

from repro.bench import table3

from conftest import run_and_report


def test_table3_fusion(benchmark, config):
    run_and_report(benchmark, table3, config)
