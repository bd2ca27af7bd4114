"""Table 1: atomic-operation impact — push / edge-centric / GNNAdvisor /
pull implementations of the GCN convolution (ovcar_8h-like, feat 128)."""

from repro.bench import table1

from conftest import run_and_report


def test_table1_atomics(benchmark, config):
    run_and_report(benchmark, table1, config)
