"""Figure 9: achieved occupancy — FeatGraph vs TLPGNN (GCN convolution)."""

from repro.bench import fig9

from conftest import run_and_report


def test_fig9_occupancy(benchmark, config):
    run_and_report(benchmark, fig9, config)
