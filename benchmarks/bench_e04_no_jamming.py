"""Benchmark E4: constant throughput without jamming (Bender et al. regime).

Regenerates experiment E4 from the DESIGN.md per-experiment index at the
smoke scale and records its headline findings in the benchmark's extra info.
"""

from experiment_bench import run_and_record


def test_e04_no_jamming(benchmark):
    run_and_record(benchmark, "E4")
