"""Property tests: the vectorized backend is bit-for-bit equal to the reference.

For every vector-eligible protocol, any precompilable workload and any seed,
the vectorized kernel must reproduce the reference kernel exactly: identical
summaries, prefix arrays, per-node statistics, traces and early-stop slots.
The same holds one level up: a ``workers=N`` trial study must be seed-for-seed
identical to its serial counterpart.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    PeriodicJamming,
    PoissonArrivals,
    RandomFractionJamming,
    ScheduleAdversary,
)
from repro.protocols import (
    LogUniformFixedProtocol,
    ProbabilityBackoff,
    SlottedAloha,
    make_factory,
)
from repro.sim import Simulator, SimulatorConfig, run_trials

eligible_factories = st.sampled_from(
    [
        ("aloha", make_factory(SlottedAloha, 0.2)),
        ("prob-backoff", make_factory(ProbabilityBackoff, 1.0)),
        ("log-uniform", make_factory(LogUniformFixedProtocol, 1.0)),
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


def run_both(factory, adversary_factory, horizon, seed, **config_kwargs):
    results = []
    for backend in ("reference", "vectorized"):
        simulator = Simulator(
            protocol_factory=factory,
            adversary=adversary_factory(),
            config=SimulatorConfig(horizon=horizon, **config_kwargs),
            seed=seed,
            backend=backend,
        )
        results.append(simulator.run())
    return results


def assert_identical(reference, vectorized):
    assert vectorized.backend == "vectorized"
    assert reference.backend == "reference"
    assert reference.summary == vectorized.summary
    assert reference.horizon == vectorized.horizon
    assert reference.prefix_active == vectorized.prefix_active
    assert reference.prefix_arrivals == vectorized.prefix_arrivals
    assert reference.prefix_jammed == vectorized.prefix_jammed
    assert reference.prefix_successes == vectorized.prefix_successes
    assert reference.node_stats == vectorized.node_stats


class TestBackendEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(named_factory=eligible_factories, workload=workloads())
    def test_scheduled_workloads_identical(self, named_factory, workload):
        _, factory = named_factory
        arrivals, jams, horizon, seed = workload
        reference, vectorized = run_both(
            factory,
            lambda: ScheduleAdversary(arrivals=arrivals, jammed_slots=jams),
            horizon,
            seed,
        )
        assert_identical(reference, vectorized)

    @settings(max_examples=15, deadline=None)
    @given(
        named_factory=eligible_factories,
        count=st.integers(min_value=1, max_value=24),
        fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_jamming_identical(self, named_factory, count, fraction, seed):
        _, factory = named_factory
        reference, vectorized = run_both(
            factory,
            lambda: ComposedAdversary(
                BatchArrivals(count), RandomFractionJamming(fraction)
            ),
            200,
            seed,
        )
        assert_identical(reference, vectorized)

    @settings(max_examples=15, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_poisson_arrivals_identical(self, rate, seed):
        reference, vectorized = run_both(
            make_factory(ProbabilityBackoff, 1.0),
            lambda: ComposedAdversary(PoissonArrivals(rate), PeriodicJamming(7)),
            150,
            seed,
        )
        assert_identical(reference, vectorized)

    @settings(max_examples=15, deadline=None)
    @given(workload=workloads())
    def test_traces_identical(self, workload):
        arrivals, jams, horizon, seed = workload
        reference, vectorized = run_both(
            make_factory(SlottedAloha, 0.3),
            lambda: ScheduleAdversary(arrivals=arrivals, jammed_slots=jams),
            horizon,
            seed,
            keep_trace=True,
        )
        assert_identical(reference, vectorized)
        assert list(reference.trace.records) == list(vectorized.trace.records)

    @settings(max_examples=15, deadline=None)
    @given(workload=workloads())
    def test_stop_when_drained_identical(self, workload):
        arrivals, jams, horizon, seed = workload
        reference, vectorized = run_both(
            make_factory(SlottedAloha, 0.4),
            lambda: ScheduleAdversary(arrivals=arrivals, jammed_slots=jams),
            horizon,
            seed,
            stop_when_drained=True,
        )
        assert_identical(reference, vectorized)


class TestParallelTrialEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        trials=st.integers(min_value=2, max_value=5),
    )
    def test_workers_seed_for_seed_identical(self, seed, trials):
        def study(workers):
            return run_trials(
                protocol_factory=make_factory(ProbabilityBackoff, 1.0),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(8), RandomFractionJamming(0.2)
                ),
                horizon=150,
                trials=trials,
                seed=seed,
                workers=workers,
            )

        serial, parallel = study(1), study(2)
        assert [r.prefix_successes for r in serial] == [
            r.prefix_successes for r in parallel
        ]
        assert [r.summary for r in serial] == [r.summary for r in parallel]
        assert [sorted(r.node_stats) for r in serial] == [
            sorted(r.node_stats) for r in parallel
        ]


def assert_studies_identical(reference_study, batched_study):
    """Full seed-for-seed equality between two studies of the same seeds."""
    assert len(reference_study) == len(batched_study)
    for reference, batched in zip(reference_study, batched_study):
        assert reference.summary == batched.summary
        assert reference.horizon == batched.horizon
        assert reference.prefix_active == batched.prefix_active
        assert reference.prefix_arrivals == batched.prefix_arrivals
        assert reference.prefix_jammed == batched.prefix_jammed
        assert reference.prefix_successes == batched.prefix_successes
        assert reference.node_stats == batched.node_stats


class TestBatchedStudyEquivalence:
    """backend="batched-study" is seed-for-seed identical to serial reference."""

    @settings(max_examples=20, deadline=None)
    @given(
        named_factory=eligible_factories,
        workload=workloads(),
        trials=st.integers(min_value=1, max_value=6),
    )
    def test_scheduled_studies_identical(self, named_factory, workload, trials):
        _, factory = named_factory
        arrivals, jams, horizon, seed = workload

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ScheduleAdversary(
                    arrivals=arrivals, jammed_slots=jams
                ),
                horizon=horizon,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        reference, batched = study("reference"), study("batched-study")
        assert all(r.backend == "reference" for r in reference)
        assert all(r.backend == "batched-study" for r in batched)
        assert_studies_identical(reference, batched)

    @settings(max_examples=12, deadline=None)
    @given(
        named_factory=eligible_factories,
        count=st.integers(min_value=0, max_value=16),
        fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
        trials=st.integers(min_value=2, max_value=5),
    )
    def test_random_jamming_studies_identical(
        self, named_factory, count, fraction, seed, trials
    ):
        _, factory = named_factory

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(count), RandomFractionJamming(fraction)
                ),
                horizon=180,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        assert_studies_identical(study("reference"), study("batched-study"))

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.2),
        seed=st.integers(min_value=0, max_value=2**16),
        trials=st.integers(min_value=2, max_value=4),
    )
    def test_poisson_studies_identical(self, rate, seed, trials):
        def study(backend):
            return run_trials(
                protocol_factory=make_factory(ProbabilityBackoff, 1.0),
                adversary_factory=lambda: ComposedAdversary(
                    PoissonArrivals(rate), PeriodicJamming(5)
                ),
                horizon=150,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        assert_studies_identical(study("reference"), study("batched-study"))

    @settings(max_examples=10, deadline=None)
    @given(workload=workloads(), trials=st.integers(min_value=2, max_value=4))
    def test_stop_when_drained_studies_identical(self, workload, trials):
        arrivals, jams, horizon, seed = workload

        def study(backend):
            return run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.4),
                adversary_factory=lambda: ScheduleAdversary(
                    arrivals=arrivals, jammed_slots=jams
                ),
                horizon=horizon,
                trials=trials,
                seed=seed,
                backend=backend,
                stop_when_drained=True,
            )

        assert_studies_identical(study("reference"), study("batched-study"))

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        trials=st.integers(min_value=2, max_value=6),
    )
    def test_auto_equals_explicit_backends(self, seed, trials):
        def study(backend):
            return run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.25),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(6), RandomFractionJamming(0.3)
                ),
                horizon=160,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        # auto leaves batched-study to an explicit pin and runs the
        # age-profile study lockstep.
        auto, batched, reference = (
            study("auto"),
            study("batched-study"),
            study("reference"),
        )
        assert all(r.backend == "lockstep" for r in auto)
        assert all(r.backend == "batched-study" for r in batched)
        assert_studies_identical(reference, auto)
        assert_studies_identical(reference, batched)
