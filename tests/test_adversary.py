"""Unit tests for arrival strategies, jamming strategies and composed adversaries."""

import numpy as np
import pytest

from repro.adversary import (
    AdaptiveSuccessChaser,
    BatchArrivals,
    BudgetedJamming,
    BurstyArrivals,
    ComposedAdversary,
    FrontLoadedJamming,
    LowerBoundAdversary,
    NoArrivals,
    NoJamming,
    NonAdaptiveKillerAdversary,
    PeriodicJamming,
    PoissonArrivals,
    RandomFractionJamming,
    ReactiveJamming,
    ScheduleAdversary,
    ScheduledArrivals,
    SmoothAdversary,
    UniformRandomArrivals,
)
from repro.core import AlgorithmParameters
from repro.errors import ConfigurationError
from repro.functions import constant_g
from repro.types import Feedback, SlotObservation


def setup(strategy, seed=0, horizon=1024):
    strategy.setup(np.random.default_rng(seed), horizon)
    return strategy


class TestArrivalStrategies:
    def test_no_arrivals(self):
        strategy = setup(NoArrivals())
        assert all(strategy.arrivals_for_slot(s) == 0 for s in range(1, 100))

    def test_batch_arrivals_single_slot(self):
        strategy = setup(BatchArrivals(10, slot=5))
        assert strategy.arrivals_for_slot(5) == 10
        assert strategy.arrivals_for_slot(4) == 0
        assert strategy.arrivals_for_slot(6) == 0

    def test_batch_arrivals_validation(self):
        with pytest.raises(ConfigurationError):
            BatchArrivals(-1)
        with pytest.raises(ConfigurationError):
            BatchArrivals(5, slot=0)

    def test_poisson_mean_rate(self):
        strategy = setup(PoissonArrivals(0.5), horizon=4000)
        total = sum(strategy.arrivals_for_slot(s) for s in range(1, 4001))
        assert 1600 < total < 2400

    def test_poisson_requires_setup(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.5).arrivals_for_slot(1)

    def test_poisson_stops_after_last_slot(self):
        strategy = setup(PoissonArrivals(1.0, last_slot=10), horizon=100)
        assert all(strategy.arrivals_for_slot(s) == 0 for s in range(11, 100))

    def test_uniform_random_total_conserved(self):
        strategy = setup(UniformRandomArrivals(50, (1, 200)))
        total = sum(strategy.arrivals_for_slot(s) for s in range(1, 201))
        assert total == 50

    def test_uniform_random_respects_window(self):
        strategy = setup(UniformRandomArrivals(50, (10, 20)))
        assert all(strategy.arrivals_for_slot(s) == 0 for s in range(1, 10))
        assert all(strategy.arrivals_for_slot(s) == 0 for s in range(21, 100))

    def test_bursty_total_volume(self):
        strategy = setup(BurstyArrivals(8, period=64, jitter=False), horizon=640)
        total = sum(strategy.arrivals_for_slot(s) for s in range(1, 641))
        assert total == 8 * 10

    def test_scheduled_arrivals(self):
        strategy = ScheduledArrivals({3: 2, 9: 1})
        assert strategy.arrivals_for_slot(3) == 2
        assert strategy.arrivals_for_slot(9) == 1
        assert strategy.arrivals_for_slot(4) == 0
        assert strategy.total_arrivals == 3

    def test_scheduled_arrivals_validation(self):
        with pytest.raises(ConfigurationError):
            ScheduledArrivals({0: 1})


class TestJammingStrategies:
    def test_no_jamming(self):
        strategy = setup(NoJamming())
        assert not any(strategy.jam_slot(s) for s in range(1, 200))

    def test_random_fraction_rate(self):
        strategy = setup(RandomFractionJamming(0.25))
        jams = sum(1 for s in range(1, 4001) if strategy.jam_slot(s))
        assert 800 < jams < 1200

    def test_random_fraction_zero_never_jams(self):
        strategy = RandomFractionJamming(0.0)
        assert not strategy.jam_slot(1)

    def test_random_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            RandomFractionJamming(1.0)

    def test_periodic_jamming(self):
        strategy = setup(PeriodicJamming(4))
        jams = [s for s in range(1, 17) if strategy.jam_slot(s)]
        assert jams == [4, 8, 12, 16]

    def test_front_loaded_jamming(self):
        strategy = setup(FrontLoadedJamming(10))
        assert all(strategy.jam_slot(s) for s in range(1, 11))
        assert not any(strategy.jam_slot(s) for s in range(11, 40))

    def test_budgeted_jamming_respects_budget(self):
        g = constant_g(4.0)
        strategy = BudgetedJamming(g, budget_constant=4.0)
        setup(strategy, horizon=1024)
        assert len(strategy.jammed_slots) <= 1024 // 16

    def test_budgeted_jamming_needs_horizon(self):
        strategy = BudgetedJamming(constant_g(4.0))
        with pytest.raises(ConfigurationError):
            strategy.setup(np.random.default_rng(0), None)

    def test_reactive_jams_only_after_success_and_within_budget(self):
        strategy = setup(ReactiveJamming(0.5, burst=2))
        assert not strategy.jam_slot(1)
        strategy.observe(SlotObservation(slot=1, feedback=Feedback.SUCCESS))
        jammed = [strategy.jam_slot(s) for s in range(2, 6)]
        assert sum(jammed) <= 2
        assert jammed[0] or jammed[1]

    def test_reactive_budget_cap(self):
        strategy = setup(ReactiveJamming(0.1, burst=100))
        strategy.observe(SlotObservation(slot=1, feedback=Feedback.SUCCESS))
        jams = sum(1 for s in range(1, 101) if strategy.jam_slot(s))
        assert jams <= 10


class TestComposedAdversary:
    def test_combines_arrivals_and_jamming(self):
        adversary = ComposedAdversary(BatchArrivals(5, slot=2), FrontLoadedJamming(1))
        adversary.setup(np.random.default_rng(0), 100)
        action1 = adversary.action_for_slot(1)
        action2 = adversary.action_for_slot(2)
        assert action1.jam is True and action1.arrivals == 0
        assert action2.jam is False and action2.arrivals == 5

    def test_name_combines_parts(self):
        adversary = ComposedAdversary(BatchArrivals(5), NoJamming())
        assert "batch" in adversary.name and "no-jamming" in adversary.name


class TestScheduleAdversary:
    def test_single_batch_constructor(self):
        adversary = ScheduleAdversary.single_batch(12, slot=3)
        adversary.setup(np.random.default_rng(0), 10)
        assert adversary.action_for_slot(3).arrivals == 12
        assert adversary.total_arrivals == 12

    def test_jam_schedule(self):
        adversary = ScheduleAdversary(arrivals={1: 1}, jammed_slots=[2, 4])
        adversary.setup(np.random.default_rng(0), 10)
        assert adversary.action_for_slot(2).jam
        assert not adversary.action_for_slot(3).jam

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScheduleAdversary(arrivals={0: 1})
        with pytest.raises(ConfigurationError):
            ScheduleAdversary(jammed_slots=[0])


class TestAdaptiveSuccessChaser:
    def test_reacts_to_success(self):
        adversary = AdaptiveSuccessChaser(
            jam_fraction=0.5, arrival_budget_per_success=3, jam_burst=2, seed_arrivals=1
        )
        adversary.setup(np.random.default_rng(0), 100)
        assert adversary.action_for_slot(1).arrivals == 1
        adversary.observe(SlotObservation(slot=1, feedback=Feedback.SUCCESS))
        action = adversary.action_for_slot(2)
        assert action.arrivals == 3
        assert action.jam is True

    def test_total_arrival_budget_cap(self):
        adversary = AdaptiveSuccessChaser(
            arrival_budget_per_success=10, total_arrival_budget=5, seed_arrivals=1
        )
        adversary.setup(np.random.default_rng(0), 100)
        adversary.action_for_slot(1)
        adversary.observe(SlotObservation(slot=1, feedback=Feedback.SUCCESS))
        adversary.action_for_slot(2)
        assert adversary.injected_nodes <= 5


class TestLowerBoundAdversaries:
    def test_lower_bound_jams_prefix_and_injects_one_node(self):
        adversary = LowerBoundAdversary(horizon=1024, g=constant_g(4.0))
        adversary.setup(np.random.default_rng(0), 1024)
        assert adversary.action_for_slot(1).arrivals == 1
        assert adversary.action_for_slot(1).jam
        assert adversary.action_for_slot(2).arrivals == 0
        # Front prefix is horizon / (4 * g) = 64 slots.
        assert adversary.action_for_slot(64).jam
        assert adversary.action_for_slot(1024).jam  # last slot always jammed

    def test_lower_bound_budget_bounded(self):
        adversary = LowerBoundAdversary(horizon=2048, g=constant_g(4.0))
        adversary.setup(np.random.default_rng(1), 2048)
        jams = sum(1 for s in range(1, 2049) if adversary.action_for_slot(s).jam)
        assert jams <= 2 * (2048 // 16) + 1

    def test_non_adaptive_killer_schedule(self):
        params = AlgorithmParameters.from_g(constant_g(4.0))
        adversary = NonAdaptiveKillerAdversary(
            horizon=1024, g=params.g, f=params.f
        )
        adversary.setup(np.random.default_rng(0), 1024)
        assert adversary.action_for_slot(1).arrivals == 2
        assert adversary.action_for_slot(1).jam
        last = adversary.action_for_slot(1024)
        assert last.jam and last.arrivals == adversary.late_arrivals
        assert adversary.front_jam_slots == 64

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            LowerBoundAdversary(horizon=2, g=constant_g(4.0))


class TestSmoothAdversary:
    def make(self, horizon=2048):
        params = AlgorithmParameters.from_g(constant_g(4.0))
        adversary = SmoothAdversary(horizon=horizon, f=params.f, g=params.g)
        adversary.setup(np.random.default_rng(0), horizon)
        return adversary

    def test_budgets_respected_globally(self):
        adversary = self.make()
        assert adversary.total_arrivals >= 1
        assert adversary.total_jams <= 2048 // 8

    def test_verify_smoothness(self):
        assert self.make().verify_smoothness()

    def test_suffix_counts_consistent(self):
        adversary = self.make()
        assert adversary.arrivals_in_suffix(2048) == adversary.total_arrivals
        assert adversary.jams_in_suffix(2048) == adversary.total_jams
        assert adversary.arrivals_in_suffix(16) <= adversary.total_arrivals

    def test_actions_match_schedules(self):
        adversary = self.make()
        arrivals = sum(adversary.action_for_slot(s).arrivals for s in range(1, 2049))
        assert arrivals == adversary.total_arrivals


class TestPaperAdversaryPrecompile:
    """The proof adversaries fix their whole schedule in ``setup``, so they
    precompile it with array writes; the arrays equal the generic
    slot-by-slot replay of ``action_for_slot``."""

    @staticmethod
    def _factories(t):
        params = AlgorithmParameters.from_g(constant_g(4.0))
        return {
            "lower-bound": lambda: LowerBoundAdversary(t, params.g, initial_nodes=3),
            # jam_constant this small makes the front jam t - 1 slots.
            "lower-bound-front": lambda: LowerBoundAdversary(
                t, params.g, jam_constant=1e-3
            ),
            "killer": lambda: NonAdaptiveKillerAdversary(t, params.g, params.f),
            "killer-front": lambda: NonAdaptiveKillerAdversary(
                t, params.g, params.f, jam_constant=1e-3
            ),
            "smooth": lambda: SmoothAdversary(t, params.f, params.g),
            "smooth-dense": lambda: SmoothAdversary(
                t, params.f, params.g, arrival_constant=0.05, jam_constant=0.5
            ),
        }

    @pytest.mark.parametrize("t", [4, 5, 37, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arrays_equal_the_generic_replay(self, monkeypatch, t, seed):
        from repro.adversary.base import Adversary

        for name, build in self._factories(t).items():
            for horizon in sorted({1, 2, t - 1, t, t + 3, 2 * t}):
                replayed = build()
                replayed.setup(np.random.default_rng(seed), horizon)
                expected = Adversary.precompile(replayed, horizon)
                adversary = build()
                adversary.setup(np.random.default_rng(seed), horizon)
                with monkeypatch.context() as patch:
                    # The override never replays the scalar API.
                    patch.setattr(type(adversary), "action_for_slot", None)
                    schedule = adversary.precompile(horizon)
                for got, want in (
                    (schedule.arrivals, expected.arrivals),
                    (schedule.jammed, expected.jammed),
                ):
                    assert got.dtype == want.dtype, (name, horizon)
                    assert np.array_equal(got, want), (name, horizon)

    def test_front_jam_covers_all_but_the_last_slot(self):
        t = 37
        factories = self._factories(t)
        for name in ("lower-bound-front", "killer-front"):
            adversary = factories[name]()
            adversary.setup(np.random.default_rng(0), t)
            assert adversary.precompile(t).jammed[1:].all(), name
        killer = factories["killer"]()
        killer.setup(np.random.default_rng(0), t)
        schedule = killer.precompile(t)
        assert schedule.arrivals[1] == 2
        assert schedule.arrivals[t] == killer.late_arrivals
