"""Benchmark E10: clearing under a smooth adversary (Corollary 3.6).

Regenerates experiment E10 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e10_smooth_clearing(benchmark):
    run_and_record(benchmark, "E10")
