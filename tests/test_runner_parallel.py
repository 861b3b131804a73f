"""Tests for trial-level parallelism in the runner."""

import pytest

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    NoJamming,
    RandomFractionJamming,
    ScheduleAdversary,
)
from repro.errors import ConfigurationError
from repro.protocols import ProbabilityBackoff, SlottedAloha, make_factory
from repro.sim import SimulatorConfig, TrialRunner, run_trials


def beb_study(workers, trials=4, seed=7, backend="auto"):
    return run_trials(
        protocol_factory=make_factory(ProbabilityBackoff, 1.0),
        adversary_factory=lambda: ComposedAdversary(
            BatchArrivals(8), RandomFractionJamming(0.2)
        ),
        horizon=200,
        trials=trials,
        seed=seed,
        workers=workers,
        backend=backend,
    )


class TestParallelTrials:
    def test_parallel_matches_serial(self):
        serial, parallel = beb_study(workers=1), beb_study(workers=3)
        assert serial.trials == parallel.trials
        assert [r.prefix_successes for r in serial] == [
            r.prefix_successes for r in parallel
        ]
        assert [r.summary for r in serial] == [r.summary for r in parallel]
        assert [r.node_stats for r in serial] == [r.node_stats for r in parallel]

    def test_parallel_with_explicit_backends(self):
        reference = beb_study(workers=2, backend="reference")
        vectorized = beb_study(workers=2, backend="vectorized")
        assert [r.summary for r in reference] == [r.summary for r in vectorized]
        assert all(r.backend == "vectorized" for r in vectorized)

    def test_more_workers_than_trials(self):
        study = beb_study(workers=16, trials=2)
        assert study.trials == 2

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            TrialRunner(
                make_factory(SlottedAloha, 0.5),
                lambda: ScheduleAdversary.single_batch(1),
                SimulatorConfig(horizon=5),
                workers=0,
            )

    def test_label_preserved(self):
        study = run_trials(
            protocol_factory=make_factory(SlottedAloha, 0.5),
            adversary_factory=lambda: ComposedAdversary(BatchArrivals(2), NoJamming()),
            horizon=20,
            trials=2,
            seed=3,
            workers=2,
            label="parallel-study",
        )
        assert study.label == "parallel-study"

    def test_summary_row_reports_throughput_columns(self):
        study = beb_study(workers=1, trials=2)
        row = study.summary_row()
        assert row["mean_wall_time_s"] > 0.0
        assert row["mean_slots_per_s"] > 0.0


class TestEffectiveWorkers:
    def test_serial_study_records_one_worker(self):
        study = beb_study(workers=1, trials=2)
        assert study.effective_workers == 1

    def test_parallel_study_records_worker_count(self):
        study = beb_study(workers=3, trials=4)
        assert study.effective_workers == 3

    def test_workers_capped_by_trials(self):
        study = beb_study(workers=16, trials=2)
        assert study.effective_workers == 2

    def test_non_fork_platform_falls_back_and_records_serial(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.warns(RuntimeWarning, match="fork"):
            study = beb_study(workers=3, trials=2)
        assert study.effective_workers == 1
        assert study.trials == 2

    def test_summary_row_reports_workers(self):
        study = beb_study(workers=2, trials=2)
        assert study.summary_row()["workers"] == 2.0


class TestBatchedStudyWorkers:
    def test_batched_study_shards_match_serial(self):
        def study(workers):
            return run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.3),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(6), RandomFractionJamming(0.2)
                ),
                horizon=120,
                trials=5,
                seed=11,
                workers=workers,
                backend="batched-study",
            )

        serial, parallel = study(1), study(3)
        assert parallel.effective_workers == 3
        assert all(r.backend == "batched-study" for r in parallel)
        assert [r.summary for r in serial] == [r.summary for r in parallel]
        assert [r.node_stats for r in serial] == [r.node_stats for r in parallel]
        assert [r.prefix_successes for r in serial] == [
            r.prefix_successes for r in parallel
        ]


class TestMetricMemoization:
    def test_metric_vector_computed_once_per_extractor(self):
        study = beb_study(workers=1, trials=3)
        calls = []

        def extractor(result):
            calls.append(1)
            return float(result.total_successes)

        first = study.metric(extractor)
        assert len(calls) == study.trials
        study.mean(extractor)
        study.std(extractor)
        study.quantile(extractor, 0.5)
        assert len(calls) == study.trials  # memoized: no further passes
        assert study.metric(extractor) is first

    def test_aggregates_accept_precomputed_vectors(self):
        import numpy as np

        study = beb_study(workers=1, trials=3)
        vector = study.metric(lambda r: float(r.total_successes))
        assert study.mean(vector) == pytest.approx(float(np.mean(vector)))
        assert study.std(vector) == pytest.approx(float(np.std(vector)))
        assert study.quantile(vector, 0.5) == pytest.approx(
            float(np.quantile(vector, 0.5))
        )
