"""Benchmark E9: energy complexity (channel accesses per node).

Regenerates experiment E9 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e09_energy(benchmark):
    run_and_record(benchmark, "E9")
