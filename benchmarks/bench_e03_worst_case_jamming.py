"""Benchmark E3: Θ(t/log t) deliveries under constant-fraction jamming.

Regenerates experiment E3 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e03_worst_case_jamming(benchmark):
    run_and_record(benchmark, "E3")
