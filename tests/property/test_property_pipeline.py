"""Property tests: metric pipelines are backend- and shard-invariant.

The pipeline contract: for any study, the finalized reducer values are
identical (1) across the reference / vectorized / batched-study backends,
(2) between ``workers=1`` and ``workers=4`` shard merges, and (3) against
the per-slot records of a traced reference run — seed for seed.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
    ScheduleAdversary,
)
from repro.metrics import (
    MetricPipeline,
    ScalarSummaryReducer,
    SuccessTimelineReducer,
    WindowedRateReducer,
)
from repro.protocols import ProbabilityBackoff, SlottedAloha, make_factory
from repro.sim import Simulator, SimulatorConfig, run_trials
from repro.types import SlotOutcome

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

eligible_factories = st.sampled_from(
    [
        ("aloha", make_factory(SlottedAloha, 0.2)),
        ("prob-backoff", make_factory(ProbabilityBackoff, 1.0)),
    ]
)

arrival_schedules = st.dictionaries(
    keys=st.integers(min_value=1, max_value=60),
    values=st.integers(min_value=1, max_value=4),
    min_size=1,
    max_size=6,
)

jam_sets = st.sets(st.integers(min_value=1, max_value=60), max_size=15)


@st.composite
def workloads(draw):
    return (
        draw(arrival_schedules),
        draw(jam_sets),
        draw(st.integers(min_value=60, max_value=150)),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


def make_pipeline(window=16):
    return MetricPipeline(
        [
            SuccessTimelineReducer(),
            WindowedRateReducer(window),
            ScalarSummaryReducer("successes"),
            ScalarSummaryReducer("active_slots"),
        ]
    )


class TestBackendInvariance:
    @settings(max_examples=15, deadline=None)
    @given(
        named_factory=eligible_factories,
        workload=workloads(),
        trials=st.integers(min_value=1, max_value=5),
    )
    def test_pipeline_identical_across_backends(
        self, named_factory, workload, trials
    ):
        _, factory = named_factory
        arrivals, jams, horizon, seed = workload

        def metrics(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ScheduleAdversary(
                    arrivals=arrivals, jammed_slots=jams
                ),
                horizon=horizon,
                trials=trials,
                seed=seed,
                backend=backend,
                pipeline=make_pipeline(),
            ).metrics()

        reference = metrics("reference")
        assert metrics("vectorized") == reference
        assert metrics("batched-study") == reference

    @settings(max_examples=10, deadline=None)
    @given(workload=workloads(), trials=st.integers(min_value=1, max_value=4))
    def test_streaming_does_not_change_metrics(self, workload, trials):
        arrivals, jams, horizon, seed = workload

        def metrics(streaming):
            return run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.3),
                adversary_factory=lambda: ScheduleAdversary(
                    arrivals=arrivals, jammed_slots=jams
                ),
                horizon=horizon,
                trials=trials,
                seed=seed,
                pipeline=make_pipeline(),
                streaming=streaming,
            ).metrics()

        assert metrics(True) == metrics(False)


@pytest.mark.skipif(not HAS_FORK, reason="workers>1 requires fork")
class TestShardInvariance:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        trials=st.integers(min_value=4, max_value=8),
    )
    def test_workers4_batched_equals_serial_reference(self, seed, trials):
        """The acceptance-criterion scenario: the batched-study backend with
        workers=4 matches the serial reference pipeline seed for seed."""

        def study(backend, workers):
            return run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.25),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(6), RandomFractionJamming(0.3)
                ),
                horizon=160,
                trials=trials,
                seed=seed,
                backend=backend,
                workers=workers,
                pipeline=make_pipeline(),
            )

        serial = study("reference", 1)
        sharded = study("batched-study", 4)
        assert sharded.effective_workers == min(4, trials)
        assert sharded.metrics() == serial.metrics()
        assert sharded.pipeline.trials == serial.pipeline.trials == trials

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_streaming_sharded_matches_serial(self, seed):
        def metrics(workers):
            return run_trials(
                protocol_factory=make_factory(ProbabilityBackoff, 1.0),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(8), RandomFractionJamming(0.2)
                ),
                horizon=150,
                trials=6,
                seed=seed,
                workers=workers,
                pipeline=make_pipeline(),
                streaming=True,
            ).metrics()

        assert metrics(4) == metrics(1)


class TestTraceParity:
    @settings(max_examples=10, deadline=None)
    @given(workload=workloads(), window=st.integers(min_value=1, max_value=40))
    def test_reducers_match_slot_by_slot_trace(self, workload, window):
        """Reducers reproduce the success slots and windowed counts of the
        reference kernel's per-slot trace exactly, even when the study
        itself ran on the batched kernel (which never materializes a single
        SlotRecord)."""
        arrivals, jams, horizon, seed = workload
        factory = make_factory(SlottedAloha, 0.3)

        study = run_trials(
            protocol_factory=factory,
            adversary_factory=lambda: ScheduleAdversary(
                arrivals=arrivals, jammed_slots=jams
            ),
            horizon=horizon,
            trials=3,
            seed=seed,
            backend="batched-study",
            pipeline=MetricPipeline(
                [SuccessTimelineReducer(), WindowedRateReducer(window)]
            ),
        )
        assert all(r.backend == "batched-study" for r in study)

        timeline_reducer = study.pipeline["success-timeline"]
        windowed_reducer = study.pipeline["windowed-rate"]
        # Re-run each trial serially on the reference kernel, keeping its
        # per-slot records.
        from repro.rng import TrialSeedBatch

        for index, tree in enumerate(TrialSeedBatch(seed, 3).trees):
            trace = Simulator(
                protocol_factory=factory,
                adversary=ScheduleAdversary(arrivals=arrivals, jammed_slots=jams),
                config=SimulatorConfig(horizon=horizon, keep_trace=True),
                seed=tree,
                backend="reference",
            ).run().trace
            hits = [r.outcome is SlotOutcome.SUCCESS for r in trace]
            slots = [r.slot for r, hit in zip(trace, hits) if hit]
            counts = [
                sum(hits[lo : lo + window]) for lo in range(0, len(hits), window)
            ]
            assert timeline_reducer.timelines[index] == slots
            assert windowed_reducer.counts[index] == counts
