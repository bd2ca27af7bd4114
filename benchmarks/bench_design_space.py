"""Design-space ablation (paper §4.2-4.3): the mapping choices behind the
two-level parallelism paradigm, quantified head-to-head.

Level 1 (vertex mapping): thread vs warp vs CTA per vertex.
Level 2 (within-warp looping): edge parallelism vs feature parallelism.
"""

from repro.bench import design_space

from conftest import run_and_report


def test_design_space(benchmark, config):
    run_and_report(benchmark, design_space, config)
