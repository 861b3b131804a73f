"""Benchmark E1: (f,g)-throughput verification (Theorem 1.2 / Definition 1.1).

Regenerates experiment E1 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e01_fg_throughput(benchmark):
    run_and_record(benchmark, "E1")
