"""Benchmark E8: baseline comparison on motivating scenarios.

Regenerates experiment E8 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e08_baselines(benchmark):
    run_and_record(benchmark, "E8")
