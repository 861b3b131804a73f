"""Shared helper for the per-experiment benchmarks.

Each ``bench_eXX_*.py`` file regenerates one of the experiments E1–E10 (the
paper is theory-only, so experiments stand in for its tables and figures).
The benchmark fixture measures the wall-clock cost of regenerating the
experiment at the ``smoke`` scale (so the whole harness runs in minutes);
the experiment's verdict and headline findings are attached to
``benchmark.extra_info`` so the bench output doubles as a miniature
reproduction report.  Full-scale numbers come from
``python -m repro.cli report --scale full``.

This is a plain module, not a ``conftest.py``: ``benchmarks/`` is no
package, so pytest puts the directory on ``sys.path`` and the bench files
import it by name.
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, run_experiment

#: Seed of every experiment benchmark.
BENCH_SEED = 20210219


def run_and_record(benchmark, experiment_id: str, trials: int = 2) -> None:
    """Run one experiment under the benchmark timer and record its findings."""
    config = ExperimentConfig(trials=trials, seed=BENCH_SEED, scale="smoke")
    result = benchmark.pedantic(
        run_experiment, args=(experiment_id, config), rounds=1, iterations=1
    )
    benchmark.extra_info["experiment"] = experiment_id
    benchmark.extra_info["title"] = result.title
    benchmark.extra_info["consistent_with_paper"] = result.consistent_with_paper
    for key, value in list(result.findings.items())[:8]:
        benchmark.extra_info[f"finding:{key}"] = value
