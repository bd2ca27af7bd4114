"""Figure 8: GNNAdvisor atomic-write traffic (GCN/GIN over 7 datasets)."""

from repro.bench import fig8

from conftest import run_and_report


def test_fig8_atomic_traffic(benchmark, config):
    run_and_report(benchmark, fig8, config)
