"""Benchmark E5: Claim 3.5.1 — 1/i-batch needs ω(n) slots.

Regenerates experiment E5 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e05_batch_lower_bound(benchmark):
    run_and_record(benchmark, "E5")
