"""Benchmark E6: truncated batch robustness under jamming.

Regenerates experiment E6 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e06_batch_robustness(benchmark):
    run_and_record(benchmark, "E6")
