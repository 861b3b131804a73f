"""Supervised worker pool: crash and hang recovery, and shard results
that outgrow the pipe's buffer (fork only).

Every test injects faults through a deterministic :class:`repro.faults.FaultPlan`
and asserts the recovered parallel study is bit-identical to the serial one —
faults may cost wall-clock, never results.
"""

import multiprocessing
import time

import pytest

from repro import faults
from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
)
from repro.errors import ConfigurationError
from repro.metrics import MetricPipeline, SuccessTimelineReducer
from repro.protocols import ProbabilityBackoff, make_factory
from repro.sim import run_trials

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool requires the fork start method",
)


def study(trials=12, seed=7, horizon=200, **kwargs):
    return run_trials(
        protocol_factory=make_factory(ProbabilityBackoff, 1.0),
        adversary_factory=lambda: ComposedAdversary(
            BatchArrivals(8), RandomFractionJamming(0.2)
        ),
        horizon=horizon,
        trials=trials,
        seed=seed,
        **kwargs,
    )


def summaries(result_study):
    return [r.summary for r in result_study.results]


class TestShardTimeout:
    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_invalid_timeout_names_the_variable(self, monkeypatch, value):
        """A parallel run reads REPRO_SHARD_TIMEOUT when it starts and
        refuses a value that is not a positive number of seconds."""
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", value)
        with pytest.raises(ConfigurationError, match="REPRO_SHARD_TIMEOUT"):
            study(workers=2)


class TestCrashRecovery:
    def test_injected_crash_retries_and_matches_serial(self):
        """The acceptance test: one worker killed mid-study, retried, and
        the recovered results are bit-identical to the serial run with
        exactly one retry recorded."""
        serial = study()
        with faults.injected(
            {"rules": [{"site": "worker-crash", "shard": 1, "attempt": 0}]}
        ):
            parallel = study(workers=4)
        assert summaries(parallel) == summaries(serial)
        assert parallel.health.retries == 1
        assert parallel.health.shard_failures == 1
        assert [e.kind for e in parallel.health.events if e.kind == "crash"] == [
            "crash"
        ]
        assert parallel.effective_workers == 4

    def test_crash_with_pipeline_merges_identically(self):
        """Shard retry must not disturb the ordered pipeline merge."""
        serial = study(pipeline=MetricPipeline([SuccessTimelineReducer()]))
        with faults.injected(
            {"rules": [{"site": "worker-crash", "shard": 2, "attempt": 0}]}
        ):
            parallel = study(
                workers=4, pipeline=MetricPipeline([SuccessTimelineReducer()])
            )
        assert summaries(parallel) == summaries(serial)
        serial_metrics = serial.metrics()
        parallel_metrics = parallel.metrics()
        assert serial_metrics.keys() == parallel_metrics.keys()
        for key in serial_metrics:
            assert parallel_metrics[key] == serial_metrics[key]

    def test_exhausted_retries_degrade_to_inline_serial(self):
        """A shard that crashes on every attempt is re-dispatched twice and
        then completes in-process, identical to serial."""
        serial = study()
        with faults.injected({"rules": [{"site": "worker-crash", "shard": 1}]}):
            parallel = study(workers=4)
        assert summaries(parallel) == summaries(serial)
        health = parallel.health
        assert [e.kind for e in health.events if e.site == "worker"] == [
            "crash", "retry", "crash", "retry", "crash", "fallback"
        ]
        assert health.retries == 2
        assert health.shard_failures == 3
        assert len(health.fallbacks) == 1
        assert health.degraded


class TestHangRecovery:
    def test_hang_terminated_within_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "0.5")
        serial = study()
        start = time.monotonic()
        with faults.injected(
            {"rules": [{"site": "worker-hang", "shard": 2, "attempt": 0}]}
        ):
            parallel = study(workers=4)
        elapsed = time.monotonic() - start
        assert summaries(parallel) == summaries(serial)
        # One timeout window plus the retry, not the 3600s injected sleep.
        assert elapsed < 10.0
        assert any(e.kind == "hang" for e in parallel.health.events)
        assert parallel.health.retries == 1


class TestLargeShardPayload:
    def test_payload_far_past_the_pipe_buffer_matches_serial(self, monkeypatch):
        """Each shard pickles its results back through its pipe.  Counters a
        worker's pipeline read travel as four int64 columns per slot, so at
        this horizon a shard sends megabytes against the pipe's 64 KiB
        buffer: the parent must drain it without a hang or a crash, and the
        results equal the serial run's."""
        horizon = 65_536

        def run(**kwargs):
            return study(
                trials=4,
                horizon=horizon,
                pipeline=MetricPipeline([SuccessTimelineReducer()]),
                **kwargs,
            )

        serial = run()
        # A drain that deadlocks fails as a hang instead of stalling.
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "120")
        parallel = run(workers=2)
        assert parallel.health.clean
        assert parallel.effective_workers == 2
        payload = sum(r.memory_bytes() for r in parallel.results[:2])
        assert payload > 32 * 64 * 1024
        assert summaries(parallel) == summaries(serial)
        for mine, theirs in zip(parallel.results, serial.results):
            assert mine.node_stats == theirs.node_stats
            assert mine.counters == theirs.counters
        assert parallel.metrics() == serial.metrics()


class TestHealthPlumbing:
    def test_clean_run_has_clean_health(self):
        parallel = study(workers=3)
        assert parallel.health.clean
        assert parallel.health.describe() == "clean"
        assert parallel.health.requested_workers == 3
        assert parallel.health.effective_workers == 3

    def test_summary_row_carries_health_columns(self):
        with faults.injected(
            {"rules": [{"site": "worker-crash", "shard": 0, "attempt": 0}]}
        ):
            parallel = study(workers=4)
        row = parallel.summary_row()
        assert row["health_retries"] == 1.0
        assert row["health_failures"] == 1.0
        assert row["health_demotions"] == 0.0

    def test_health_round_trips_through_dict(self):
        with faults.injected(
            {"rules": [{"site": "worker-crash", "shard": 0, "attempt": 0}]}
        ):
            parallel = study(workers=4)
        from repro.sim import RunHealth

        restored = RunHealth.from_dict(parallel.health.to_dict())
        assert restored.events == parallel.health.events
        assert restored.retries == parallel.health.retries

    def test_kernel_fault_site_fires_in_serial_path(self):
        from repro.errors import FaultInjected

        with faults.injected({"rules": [{"site": "kernel", "times": 1}]}):
            with pytest.raises(FaultInjected):
                study()
