"""Figure 11: scalability against thread count (full-size degree sequences)."""

from repro.bench import fig11

from conftest import run_and_report


def test_fig11_thread_scaling(benchmark, config):
    run_and_report(benchmark, fig11, config)
