"""Benchmark E7: necessity of adaptive backoff (Theorem 4.2 / Lemma 4.1).

Regenerates experiment E7 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e07_nonadaptive(benchmark):
    run_and_record(benchmark, "E7")
