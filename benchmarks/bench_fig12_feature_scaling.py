"""Figure 12: normalized runtime against feature size (16 -> 512)."""

from repro.bench import fig12

from conftest import run_and_report


def test_fig12_feature_scaling(benchmark, config):
    run_and_report(benchmark, fig12, config)
