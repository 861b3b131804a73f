"""Micro-benchmarks of the study-level backends.

Tracks the cost of whole multi-trial studies across the backend ladder
(reference → vectorized → batched-study) so study-level regressions are
visible independently of the per-experiment benchmarks, and checks that
lockstep, which ``auto`` picks for these studies, reproduces them.  The speedup floors
asserted here are deliberately looser than the figures recorded in the
committed ``BENCH_*.json`` (generated via ``python -m repro.cli bench``) to
stay robust on noisy shared runners.
"""

from __future__ import annotations

import time

from repro.adversary import BatchArrivals, ComposedAdversary, RandomFractionJamming
from repro.protocols import SlottedAloha, make_factory
from repro.sim import run_trials

TRIALS = 300
HORIZON = 192
NODES = 3


def _study(backend: str, trials: int = TRIALS):
    return run_trials(
        protocol_factory=make_factory(SlottedAloha, 0.05),
        adversary_factory=lambda: ComposedAdversary(
            BatchArrivals(NODES), RandomFractionJamming(0.25)
        ),
        horizon=HORIZON,
        trials=trials,
        seed=1,
        backend=backend,
    )


def test_study_vectorized_backend(benchmark):
    study = benchmark(lambda: _study("vectorized"))
    assert all(result.backend == "vectorized" for result in study)


def test_study_batched_backend(benchmark):
    study = benchmark(lambda: _study("batched-study"))
    assert all(result.backend == "batched-study" for result in study)


def test_batched_study_speedup_floor():
    """The batched study kernel must beat the per-trial vectorized path by a
    comfortable margin on an e01-style study (the committed bench records the
    full figure; this floor only guards against collapses)."""

    def best_of(backend: str, repeats: int = 3) -> float:
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            _study(backend)
            timings.append(time.perf_counter() - start)
        return min(timings)

    _study("batched-study", trials=8)  # warm-up (seed-path self checks)
    _study("vectorized", trials=8)
    vectorized_time = best_of("vectorized")
    batched_time = best_of("batched-study")
    speedup = vectorized_time / batched_time
    assert speedup >= 3.0, (
        f"batched-study speedup {speedup:.1f}x below the 3x regression floor"
    )


def test_batched_study_matches_vectorized_results():
    vectorized = _study("vectorized", trials=12)
    batched = _study("batched-study", trials=12)
    assert [r.summary for r in vectorized] == [r.summary for r in batched]
    assert [r.node_stats for r in vectorized] == [r.node_stats for r in batched]


def test_lockstep_matches_batched_study_results():
    """``auto`` runs this age-profile study on lockstep, whose rows draw
    their sends on arrival; it must reproduce batched-study trial for
    trial.  Equality only: the committed bench records time the two."""
    lockstep = _study("lockstep", trials=40)
    batched = _study("batched-study", trials=40)
    assert {r.backend for r in lockstep} == {"lockstep"}
    assert [r.summary for r in lockstep] == [r.summary for r in batched]
    assert [r.node_stats for r in lockstep] == [r.node_stats for r in batched]
    assert [r.prefix_successes for r in lockstep] == [
        r.prefix_successes for r in batched
    ]
