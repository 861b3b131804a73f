"""Unit tests for columnar prefix counters and the metric pipeline."""

import numpy as np
import pytest

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    NoJamming,
    RandomFractionJamming,
)
from repro.core import AlgorithmParameters
from repro.errors import AnalysisError, ConfigurationError, SpecError
from repro.functions import constant_g
from repro.metrics import (
    EnergyReducer,
    FGThroughputReducer,
    LatencyReducer,
    MetricPipeline,
    ScalarSummaryReducer,
    SuccessTimelineReducer,
    WindowedRateReducer,
    summarize_energy,
    summarize_latencies,
)
from repro.protocols import SlottedAloha, make_factory
from repro.sim import (
    PrefixColumn,
    PrefixCounters,
    SimulationResult,
    Simulator,
    SimulatorConfig,
    run_trials,
)
from repro.spec import METRIC_REDUCERS, PipelineSpec, StudySpec
from repro.types import SimulationSummary, SlotOutcome


def aloha_factory(p=0.15):
    return make_factory(SlottedAloha, p)


def jammed_batch(n=6, fraction=0.25):
    return lambda: ComposedAdversary(BatchArrivals(n), RandomFractionJamming(fraction))


def small_study(backend="auto", **kwargs):
    return run_trials(
        protocol_factory=aloha_factory(),
        adversary_factory=jammed_batch(),
        horizon=192,
        trials=6,
        seed=11,
        backend=backend,
        **kwargs,
    )


class TestPrefixCounters:
    def make(self):
        return PrefixCounters.from_lists(
            active=[0, 1, 2, 3],
            arrivals=[0, 2, 2, 2],
            jammed=[0, 0, 1, 1],
            successes=[0, 0, 1, 2],
        )

    def test_columns_are_int64(self):
        counters = self.make()
        for name in ("active", "arrivals", "jammed", "successes"):
            assert counters.column(name).dtype == np.int64

    def test_length_and_slots(self):
        counters = self.make()
        assert len(counters) == 4
        assert counters.slots == 3

    def test_nbytes(self):
        assert self.make().nbytes == 4 * 4 * 8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            PrefixCounters.from_lists([0, 1], [0], [0, 1], [0, 1])

    def test_unknown_column_rejected(self):
        with pytest.raises(AnalysisError):
            self.make().column("latency")

    def test_int64_input_is_zero_copy(self):
        column = np.arange(5, dtype=np.int64)
        counters = PrefixCounters(
            active=column, arrivals=column, jammed=column, successes=column
        )
        assert counters.active is column

    def test_equality_compares_columns(self):
        assert self.make() == self.make()
        other = PrefixCounters.from_lists(
            [0, 1, 2, 3], [0, 2, 2, 2], [0, 0, 1, 1], [0, 1, 1, 2]
        )
        assert self.make() != other
        assert self.make() != object()

    def test_success_slots(self):
        assert self.make().success_slots().tolist() == [2, 3]

    def test_windowed_successes(self):
        # Per-slot successes are [0, 1, 1] (slots 1..3).
        counters = self.make()
        assert counters.windowed_successes(2).tolist() == [1, 1]
        assert counters.windowed_successes(3).tolist() == [2]
        with pytest.raises(AnalysisError):
            counters.windowed_successes(0)


class TestPrefixColumn:
    def make(self):
        return PrefixColumn(np.asarray([0, 1, 1, 3], dtype=np.int64))

    def test_indexing_returns_python_ints(self):
        column = self.make()
        assert column[0] == 0 and isinstance(column[0], int)
        assert column[-1] == 3

    def test_slicing_and_iteration(self):
        column = self.make()
        assert list(column[1:]) == [1, 1, 3]
        assert all(b >= a for a, b in zip(column, column[1:]))

    def test_equality_with_lists_and_views(self):
        column = self.make()
        assert column == [0, 1, 1, 3]
        assert column == self.make()
        assert column != [0, 1, 1, 4]
        assert (column == object()) is False or True  # NotImplemented path

    def test_numpy_interop(self):
        assert np.asarray(self.make()).sum() == 5


class TestSimulationResultSurface:
    def run_once(self, **config_kwargs):
        return Simulator(
            protocol_factory=aloha_factory(),
            adversary=jammed_batch()(),
            config=SimulatorConfig(horizon=128, **config_kwargs),
            seed=3,
        ).run()

    def test_prefix_accessors_are_views(self):
        result = self.run_once()
        assert isinstance(result.prefix_active, PrefixColumn)
        assert len(result.prefix_active) == result.horizon + 1
        assert result.prefix_successes[-1] == result.total_successes

    def test_release_counters(self):
        result = self.run_once()
        assert result.memory_bytes() > 0
        released = result.release_counters()
        assert released > 0
        assert result.memory_bytes() == 0
        assert result.release_counters() == 0
        with pytest.raises(AnalysisError):
            result.prefix_active
        # Summary surface survives the release.
        assert result.total_successes == result.summary.successes
        assert result.describe()
        assert result.classical_throughput() == result.classical_throughput(
            result.horizon
        )

    def test_released_classical_throughput_rejects_interior_slots(self):
        result = self.run_once()
        result.release_counters()
        with pytest.raises(AnalysisError):
            result.classical_throughput(result.horizon // 2)

    def test_slots_per_second_uses_resolved_slots(self):
        # An early-exit run resolved 10 slots of a 1000-slot horizon; the
        # throughput figure must divide by 10, not 1000.
        summary = SimulationSummary(total_slots=10, successes=1, arrivals=1)
        result = SimulationResult(
            summary=summary,
            node_stats={},
            counters=None,
            horizon=1000,
            wall_time_seconds=2.0,
        )
        assert result.slots_per_second == pytest.approx(5.0)
        result.wall_time_seconds = 0.0
        assert result.slots_per_second == 0.0


class TestReducers:
    def study_results(self):
        return list(small_study(backend="reference"))

    @staticmethod
    def traced_run():
        """One reference-kernel run that keeps its per-slot records."""
        return Simulator(
            protocol_factory=aloha_factory(),
            adversary=jammed_batch()(),
            config=SimulatorConfig(horizon=192, keep_trace=True),
            seed=7,
            backend="reference",
        ).run()

    def test_success_timeline_matches_trace(self):
        result = self.traced_run()
        slots = [r.slot for r in result.trace if r.outcome is SlotOutcome.SUCCESS]
        assert slots
        reducer = SuccessTimelineReducer()
        reducer.reduce(result.counters, result)
        assert reducer.timelines[0] == slots
        assert reducer.first_success_slots()[0] == slots[0]

    def test_windowed_rate_matches_trace(self):
        result = self.traced_run()
        hits = [r.outcome is SlotOutcome.SUCCESS for r in result.trace]
        counts = [sum(hits[lo : lo + 17]) for lo in range(0, len(hits), 17)]
        assert len(hits) % 17  # a trailing partial window
        reducer = WindowedRateReducer(window=17)
        reducer.reduce(result.counters, result)
        assert reducer.counts[0] == counts
        assert reducer.rates(0) == [count / 17 for count in counts]

    def test_latency_and_energy_match_summaries(self):
        results = self.study_results()
        latency = LatencyReducer()
        energy = EnergyReducer()
        for result in results:
            latency.reduce(result.counters, result)
            energy.reduce(result.counters, result)
        assert latency.value() == summarize_latencies(results)
        assert energy.value() == summarize_energy(results)

    def test_scalar_reducer_summary(self):
        results = self.study_results()
        reducer = ScalarSummaryReducer("successes")
        for result in results:
            reducer.reduce(result.counters, result)
        values = [float(r.total_successes) for r in results]
        summary = reducer.value()
        assert summary["trials"] == len(values)
        assert summary["mean"] == pytest.approx(np.mean(values))
        assert summary["max"] == max(values)

    def test_scalar_reducer_rejects_unknown_metric(self):
        with pytest.raises(ConfigurationError):
            ScalarSummaryReducer("vibes")

    def test_fg_reducer_matches_per_trial_checks(self):
        from repro.metrics import FGThroughputChecker

        g = constant_g(4.0)
        f = AlgorithmParameters.from_g(g).f
        results = self.study_results()
        checker = FGThroughputChecker(f, g, slack=8.0, min_prefix=32, additive_grace=64.0)
        reports = [checker.check(r) for r in results]
        reducer = FGThroughputReducer(f, g, slack=8.0, min_prefix=32, additive_grace=64.0)
        for result in results:
            reducer.reduce(result.counters, result)
        verdict = reducer.value()
        assert verdict["trials"] == len(reports)
        assert verdict["satisfied"] == sum(1 for r in reports if r.satisfied)
        assert verdict["violations"] == sum(r.violations for r in reports)
        assert verdict["worst_ratio"] == max(r.worst_ratio for r in reports)

    def test_merge_is_ordered_concatenation(self):
        results = self.study_results()
        serial = SuccessTimelineReducer()
        for result in results:
            serial.reduce(result.counters, result)
        left, right = SuccessTimelineReducer(), SuccessTimelineReducer()
        for result in results[:2]:
            left.reduce(result.counters, result)
        for result in results[2:]:
            right.reduce(result.counters, result)
        left.merge(right)
        assert left.timelines == serial.timelines

    def test_merge_rejects_mismatched_parameters(self):
        with pytest.raises(AnalysisError):
            WindowedRateReducer(8).merge(WindowedRateReducer(16))
        with pytest.raises(AnalysisError):
            ScalarSummaryReducer("successes").merge(ScalarSummaryReducer("arrivals"))

    def test_reducers_need_counters(self):
        result = self.study_results()[0]
        result.release_counters()
        with pytest.raises(AnalysisError):
            SuccessTimelineReducer().reduce(result.counters, result)


class TestMetricPipeline:
    def make(self):
        return MetricPipeline(
            [SuccessTimelineReducer(), ScalarSummaryReducer("successes")]
        )

    def test_requires_reducers(self):
        with pytest.raises(ConfigurationError):
            MetricPipeline([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            MetricPipeline([LatencyReducer(), LatencyReducer()])

    def test_update_and_finalize(self):
        pipeline = self.make()
        study = small_study(backend="reference")
        for result in study:
            pipeline.update(result)
        values = pipeline.finalize()
        assert pipeline.trials == study.trials
        assert set(values) == {"success-timeline", "scalar:successes"}
        # finalize is pure: calling it again returns the same values.
        assert pipeline.finalize() == values

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            self.make().merge(MetricPipeline([LatencyReducer()]))

    def test_getitem(self):
        pipeline = self.make()
        assert isinstance(pipeline["success-timeline"], SuccessTimelineReducer)
        with pytest.raises(KeyError):
            pipeline["nope"]


class TestRunnerIntegration:
    def pipeline(self):
        return MetricPipeline(
            [
                SuccessTimelineReducer(),
                WindowedRateReducer(32),
                ScalarSummaryReducer("successes"),
            ]
        )

    def test_pipeline_runs_on_batched_study_backend(self):
        study = small_study(backend="batched-study", pipeline=self.pipeline())
        assert all(r.backend == "batched-study" for r in study)
        assert study.metrics() is not None
        assert study.pipeline.trials == study.trials

    def test_pipeline_values_identical_across_backends(self):
        values = {
            backend: small_study(backend=backend, pipeline=self.pipeline()).metrics()
            for backend in ("reference", "vectorized", "batched-study")
        }
        assert values["reference"] == values["vectorized"] == values["batched-study"]

    def test_streaming_releases_columns(self):
        study = small_study(pipeline=self.pipeline(), streaming=True)
        assert study.memory_bytes() == 0
        assert all(r.counters is None for r in study)
        # Metrics were reduced before the columns were dropped.
        assert study.metrics() == small_study(pipeline=self.pipeline()).metrics()
        # Summary-level aggregation still works on streamed results.
        assert study.mean(lambda r: r.total_successes) >= 0.0

    def test_streaming_without_pipeline(self):
        study = small_study(streaming=True)
        assert study.memory_bytes() == 0
        assert study.metrics() is None

    def test_streaming_conflicts_with_keep_trace(self):
        with pytest.raises(ConfigurationError):
            run_trials(
                protocol_factory=aloha_factory(),
                adversary_factory=jammed_batch(),
                horizon=64,
                trials=2,
                keep_trace=True,
                streaming=True,
            )

    def test_pipeline_type_validated(self):
        with pytest.raises(ConfigurationError):
            small_study(pipeline=object())

    def test_study_without_pipeline_has_no_metrics(self):
        assert small_study().metrics() is None

    def test_consecutive_runs_get_independent_pipelines(self):
        from repro.sim import SimulatorConfig, TrialRunner

        template = self.pipeline()
        runner = TrialRunner(
            aloha_factory(),
            jammed_batch(),
            SimulatorConfig(horizon=96),
            pipeline=template,
        )
        first = runner.run(trials=3, seed=1)
        first_metrics = first.metrics()
        second = runner.run(trials=5, seed=2)
        # The first study's metrics must not be overwritten by the later run.
        assert first.pipeline is not second.pipeline
        assert first.metrics() == first_metrics
        assert first.pipeline.trials == 3
        assert second.pipeline.trials == 5
        # The template the caller handed in stays untouched.
        assert template.trials == 0


class TestPipelineSpec:
    def spec(self):
        return PipelineSpec(
            reducers=(
                {"kind": "success-timeline"},
                {"kind": "windowed-rate", "params": {"window": 24}},
                {"kind": "scalar", "params": {"metric": "successes"}},
            )
        )

    def test_json_round_trip(self):
        spec = self.spec()
        assert PipelineSpec.from_json(spec.to_json()) == spec
        assert hash(PipelineSpec.from_json(spec.to_json())) == hash(spec)

    def test_build_and_reserialize(self):
        spec = self.spec()
        pipeline = spec.build()
        assert pipeline.to_spec() == spec

    def test_fg_reducer_round_trips_through_rate_specs(self):
        g = constant_g(4.0)
        f = AlgorithmParameters.from_g(g).f
        spec = PipelineSpec.of(
            FGThroughputReducer(f, g, slack=8.0, min_prefix=48, additive_grace=32.0)
        )
        rebuilt = PipelineSpec.from_json(spec.to_json()).build()
        reducer = rebuilt.reducers[0]
        assert reducer.slack == 8.0
        assert reducer.min_prefix == 48
        assert reducer.g.name == g.name

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            PipelineSpec(reducers=({"kind": "telepathy"},))

    def test_unknown_params_rejected(self):
        with pytest.raises(SpecError):
            PipelineSpec(reducers=({"kind": "latency", "params": {"bogus": 1}},))

    def test_missing_required_param_rejected(self):
        with pytest.raises(SpecError):
            PipelineSpec(reducers=({"kind": "windowed-rate"},))

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SpecError):
            PipelineSpec(reducers=())

    def test_registry_lists_all_kinds(self):
        assert set(METRIC_REDUCERS.kinds()) == {
            "success-timeline",
            "windowed-rate",
            "fg-throughput",
            "latency",
            "energy",
            "scalar",
        }


class TestStudySpecIntegration:
    def test_pipeline_and_streaming_round_trip(self):
        spec = StudySpec(
            horizon=256,
            trials=3,
            pipeline=PipelineSpec(reducers=({"kind": "energy"},)),
            streaming=True,
        )
        rebuilt = StudySpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.pipeline == spec.pipeline

    def test_pipeline_and_streaming_are_hash_neutral(self):
        base = StudySpec(horizon=256, trials=3)
        augmented = StudySpec(
            horizon=256,
            trials=3,
            pipeline=PipelineSpec(reducers=({"kind": "latency"},)),
            streaming=True,
        )
        assert base.spec_hash() == augmented.spec_hash()

    def test_streaming_keep_trace_conflict(self):
        with pytest.raises(SpecError):
            StudySpec(streaming=True, keep_trace=True)

    def test_run_executes_pipeline(self):
        spec = StudySpec(
            horizon=256,
            trials=3,
            pipeline=PipelineSpec(reducers=({"kind": "latency"},)),
            streaming=True,
        )
        study = spec.run()
        assert study.metrics() is not None
        assert study.memory_bytes() == 0

    def test_pipeline_runs_skip_store(self, tmp_path):
        from repro.spec import StudyPlan, StudyStore

        store = StudyStore(tmp_path)
        spec = StudySpec(
            horizon=128,
            trials=2,
            pipeline=PipelineSpec(reducers=({"kind": "latency"},)),
        )
        StudyPlan([spec]).run(store=store)
        assert store.entries() == []
        # Streaming-only runs still cache (the summary surface is intact).
        plain = StudySpec(horizon=128, trials=2, streaming=True)
        StudyPlan([plain]).run(store=store)
        assert store.entries() == [plain.spec_hash()]
