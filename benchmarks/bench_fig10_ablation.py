"""Figure 10: technique benefits — cumulative ablation over edge-centric."""

from repro.bench import fig10

from conftest import run_and_report


def test_fig10_ablation(benchmark, config):
    run_and_report(benchmark, fig10, config)
