"""Benchmark E2: throughput vs jamming-severity trade-off (Theorems 1.2 + 1.3).

Regenerates experiment E2 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e02_tradeoff_curve(benchmark):
    run_and_record(benchmark, "E2")
