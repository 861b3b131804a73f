"""Unit tests for the metrics package."""

import pytest

from repro.adversary import BatchArrivals, ComposedAdversary, NoJamming, RandomFractionJamming, ScheduleAdversary
from repro.core import AlgorithmParameters, cjz_factory
from repro.errors import AnalysisError
from repro.functions import RateFunction, constant_g
from repro.metrics import (
    FGThroughputChecker,
    check_fg_throughput,
    classical_throughput_series,
    summarize_energy,
    summarize_latencies,
)
from repro.protocols import ProbabilityBackoff, make_factory
from repro.sim import Simulator, SimulatorConfig


def run_batch(n=16, horizon=512, jam=0.0, seed=3, protocol=None):
    jamming = RandomFractionJamming(jam) if jam else NoJamming()
    return Simulator(
        protocol_factory=protocol or cjz_factory(),
        adversary=ComposedAdversary(BatchArrivals(n), jamming),
        config=SimulatorConfig(horizon=horizon),
        seed=seed,
    ).run()


class TestFGThroughputChecker:
    def test_bound_formula(self):
        f = RateFunction("f", lambda x: 2.0)
        g = RateFunction("g", lambda x: 3.0)
        checker = FGThroughputChecker(f, g, slack=1.0, additive_grace=5.0)
        assert checker.bound(t=100, arrivals=4, jammed=2) == pytest.approx(4 * 2 + 2 * 3 + 5)

    def test_satisfied_run_passes(self):
        result = run_batch(n=12, horizon=1024)
        params = AlgorithmParameters.from_g(constant_g(4.0))
        report = check_fg_throughput(
            result, params.f, params.g, slack=8.0, min_prefix=64, additive_grace=128.0
        )
        assert report.satisfied
        assert report.violations == 0
        assert report.worst_ratio <= 1.0

    def test_tight_bound_detects_violations(self):
        result = run_batch(n=12, horizon=1024)
        # A vanishing bound must be violated by any active run.
        tiny_f = RateFunction("tiny", lambda x: 1e-6)
        tiny_g = RateFunction("tiny", lambda x: 1e-6)
        report = check_fg_throughput(result, tiny_f, tiny_g, slack=1.0, min_prefix=1)
        assert not report.satisfied
        assert report.violations > 0

    def test_invalid_slack(self):
        with pytest.raises(AnalysisError):
            FGThroughputChecker(RateFunction("f", lambda x: 1.0), RateFunction("g", lambda x: 1.0), slack=0)

    def test_report_bool(self):
        result = run_batch(n=4, horizon=256)
        params = AlgorithmParameters.from_g(constant_g(4.0))
        report = check_fg_throughput(result, params.f, params.g, slack=16.0, additive_grace=256.0)
        assert bool(report) is report.satisfied


class TestClassicalThroughputSeries:
    def test_default_checkpoints_are_powers_of_two(self):
        result = run_batch(n=8, horizon=100)
        series = classical_throughput_series(result)
        assert len(series) >= 5

    def test_explicit_checkpoints(self):
        result = run_batch(n=8, horizon=100)
        series = classical_throughput_series(result, checkpoints=[10, 100])
        assert len(series) == 2

    def test_out_of_range_checkpoint_rejected(self):
        result = run_batch(n=8, horizon=100)
        with pytest.raises(AnalysisError):
            classical_throughput_series(result, checkpoints=[1000])


class TestLatencyAndEnergy:
    def test_latency_summary(self):
        result = run_batch(n=16, horizon=2048)
        summary = summarize_latencies([result])
        assert summary.count == 16
        assert summary.unfinished == 0
        assert summary.mean > 0
        assert summary.maximum >= summary.median
        assert summary.completion_rate == 1.0

    def test_latency_summary_empty(self):
        summary = summarize_latencies([])
        assert summary.count == 0

    def test_energy_summary(self):
        result = run_batch(n=16, horizon=2048)
        summary = summarize_energy([result])
        assert summary.nodes == 16
        assert summary.total_broadcasts > 0
        assert summary.maximum >= summary.mean
        assert summary.scaled_by_log2(16) == pytest.approx(summary.mean / 16.0)

    def test_energy_summary_empty(self):
        summary = summarize_energy([])
        assert summary.nodes == 0
