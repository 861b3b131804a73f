"""Edge-case and regression tests that cut across modules."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.adversary import ReactiveJamming, ScheduleAdversary
from repro.analysis.fitting import SHAPE_MODELS, fit_shape
from repro.errors import (
    AdversaryError,
    AnalysisError,
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    ReproError,
)
from repro.experiments._helpers import log2
from repro.protocols import make_factory
from repro.protocols.aloha import SlottedAloha
from repro.sim import Simulator, SimulatorConfig
from repro.types import Feedback, SlotObservation


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for error_type in (
            ConfigurationError,
            ProtocolError,
            AdversaryError,
            AnalysisError,
            ExperimentError,
        ):
            assert issubclass(error_type, ReproError)
            assert issubclass(error_type, Exception)


class TestPackageSurface:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_public_names_importable(self):
        """Every ``__all__`` name of every ``repro`` module resolves, so a
        deleted name cannot linger in a subpackage's export list."""
        modules = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        ]
        for module_name in modules:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_lazy_two_channel_export(self):
        from repro import protocols

        assert protocols.TwoChannelNoJamming.__name__ == "TwoChannelNoJamming"
        with pytest.raises(AttributeError):
            protocols.DoesNotExist  # noqa: B018


class TestQuickRunEdgeCases:
    def test_zero_jam_fraction_uses_no_jamming(self):
        result = repro.quick_run(arrivals=2, horizon=64, jam_fraction=0.0, seed=1)
        assert result.total_jammed_slots == 0

    def test_result_metadata(self):
        result = repro.quick_run(arrivals=2, horizon=64, seed=5)
        assert result.horizon == 64
        assert result.protocol_name == "chen-jiang-zheng"
        assert "batch" in result.adversary_name


class TestResultAccessors:
    def make_result(self):
        return repro.quick_run(arrivals=4, horizon=256, seed=9)

    def test_successes_by_slot_monotone(self):
        result = self.make_result()
        assert result.successes_by_slot(1) <= result.successes_by_slot(256)
        assert result.successes_by_slot(10_000) == result.total_successes

    def test_max_latency(self):
        result = self.make_result()
        assert result.max_latency() >= 1

    def test_summary_counters_sum_to_horizon(self):
        result = self.make_result()
        summary = result.summary
        assert (
            summary.successes + summary.collisions + summary.silent_slots
            == summary.total_slots
        )


class TestExperimentHelpers:
    def test_log2_floor(self):
        assert log2(1.0) == 1.0
        assert log2(8.0) == 3.0


class TestReactiveJammingEdgeCases:
    def test_non_success_observation_does_not_arm(self):
        strategy = ReactiveJamming(0.5, burst=3)
        strategy.setup(np.random.default_rng(0), 100)
        strategy.observe(SlotObservation(slot=1, feedback=Feedback.NO_SUCCESS))
        assert not any(strategy.jam_slot(s) for s in range(1, 20))


class TestSimulatorEdgeCases:
    def test_horizon_one(self):
        result = Simulator(
            protocol_factory=make_factory(SlottedAloha, 1.0),
            adversary=ScheduleAdversary.single_batch(1, slot=1),
            config=SimulatorConfig(horizon=1),
            seed=0,
        ).run()
        assert result.horizon == 1
        assert result.total_successes == 1

    def test_no_arrivals_at_all(self):
        result = Simulator(
            protocol_factory=make_factory(SlottedAloha, 1.0),
            adversary=ScheduleAdversary(),
            config=SimulatorConfig(horizon=32),
            seed=0,
        ).run()
        assert result.total_arrivals == 0
        assert result.total_active_slots == 0
        assert result.classical_throughput() == float("inf")

    def test_arrival_in_last_slot(self):
        result = Simulator(
            protocol_factory=make_factory(SlottedAloha, 1.0),
            adversary=ScheduleAdversary.single_batch(1, slot=32),
            config=SimulatorConfig(horizon=32),
            seed=0,
        ).run()
        assert result.total_arrivals == 1
        assert result.total_active_slots == 1


class TestFittingModels:
    def test_all_models_evaluate(self):
        xs = [2.0**k for k in range(4, 12)]
        for name, basis in SHAPE_MODELS.items():
            values = basis(np.asarray(xs))
            assert np.all(np.isfinite(values)), name

    def test_fit_all_default_models(self):
        xs = [2.0**k for k in range(4, 12)]
        ys = [3.0 * x for x in xs]
        fits = fit_shape(xs, ys)
        assert set(fits) == set(SHAPE_MODELS)
