"""Property tests: injected faults never change results, only wall-clock.

The resilience contract of the supervised worker pool: for any workload and
seed, a parallel study that loses a worker (crash) produces results — and
merged pipeline metrics — bit-identical to the serial run.  Faults are injected
through deterministic :class:`repro.faults.FaultPlan` rules, so every
counterexample hypothesis finds is replayable.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
)
from repro.metrics import (
    MetricPipeline,
    ScalarSummaryReducer,
    SuccessTimelineReducer,
)
from repro.protocols import ProbabilityBackoff, SlottedAloha, make_factory
from repro.sim import run_trials

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not HAS_FORK, reason="supervised pool requires the fork start method"
)

factories = st.sampled_from(
    [
        ("aloha", make_factory(SlottedAloha, 0.2)),
        ("prob-backoff", make_factory(ProbabilityBackoff, 1.0)),
    ]
)


@st.composite
def studies(draw):
    return (
        draw(factories),
        draw(st.integers(min_value=4, max_value=20)),  # arrivals
        draw(st.floats(min_value=0.0, max_value=0.4)),  # jam fraction
        draw(st.integers(min_value=60, max_value=150)),  # horizon
        draw(st.integers(min_value=5, max_value=10)),  # trials
        draw(st.integers(min_value=0, max_value=2**16)),  # seed
        draw(st.integers(min_value=0, max_value=3)),  # crashed shard
    )


def _run(factory, arrivals, jam, horizon, trials, seed, **kwargs):
    return run_trials(
        protocol_factory=factory,
        adversary_factory=lambda: ComposedAdversary(
            BatchArrivals(arrivals), RandomFractionJamming(jam)
        ),
        horizon=horizon,
        trials=trials,
        seed=seed,
        pipeline=MetricPipeline(
            [SuccessTimelineReducer(), ScalarSummaryReducer("successes")]
        ),
        **kwargs,
    )


def _assert_identical(serial, parallel):
    assert [r.summary for r in parallel.results] == [
        r.summary for r in serial.results
    ]
    serial_metrics = serial.metrics()
    parallel_metrics = parallel.metrics()
    assert serial_metrics.keys() == parallel_metrics.keys()
    for key in serial_metrics:
        assert parallel_metrics[key] == serial_metrics[key]


@settings(max_examples=8, deadline=None)
@given(studies())
def test_killed_worker_with_retry_is_bit_identical_to_serial(study):
    (_, factory), arrivals, jam, horizon, trials, seed, shard = study
    serial = _run(factory, arrivals, jam, horizon, trials, seed)
    with faults.injected(
        {"rules": [{"site": "worker-crash", "shard": shard, "attempt": 0}]}
    ):
        parallel = _run(
            factory, arrivals, jam, horizon, trials, seed, workers=4
        )
    _assert_identical(serial, parallel)
    assert parallel.health.retries == 1
    assert parallel.health.shard_failures == 1

