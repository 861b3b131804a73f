"""Unit and integration tests for the simulation engine, node wrapper and runner."""

import numpy as np
import pytest

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    FrontLoadedJamming,
    NoJamming,
    ScheduleAdversary,
)
from repro.core import cjz_factory
from repro.errors import ConfigurationError
from repro.protocols import ProbabilityBackoff, SlottedAloha, make_factory
from repro.protocols.base import Protocol
from repro.sim import Simulator, SimulatorConfig, TrialRunner, run_trials
from repro.sim.events import EventTrace
from repro.sim.node import Node
from repro.types import Feedback, SlotOutcome, SlotRecord


class AlwaysSend(Protocol):
    """Test protocol that broadcasts in every slot."""

    name = "always-send"

    def on_arrival(self, slot, rng):
        self.arrival = slot

    def wants_to_broadcast(self, slot):
        return True

    def on_feedback(self, slot, feedback, broadcast, success_was_own):
        pass


class NeverSend(Protocol):
    """Test protocol that never broadcasts."""

    name = "never-send"

    def on_arrival(self, slot, rng):
        pass

    def wants_to_broadcast(self, slot):
        return False

    def on_feedback(self, slot, feedback, broadcast, success_was_own):
        pass


class TestNode:
    def test_node_counts_broadcasts(self, rng):
        node = Node(0, 1, AlwaysSend(), rng)
        assert node.decide_broadcast(1)
        assert node.decide_broadcast(2)
        assert node.stats.broadcast_count == 2

    def test_node_deactivates_on_own_success(self, rng):
        node = Node(3, 1, AlwaysSend(), rng)
        node.decide_broadcast(1)
        node.deliver_feedback(1, Feedback.SUCCESS, broadcast=True, successful_node=3)
        assert not node.active
        assert node.stats.success_slot == 1
        assert node.decide_broadcast(2) is False

    def test_other_nodes_success_keeps_node_active(self, rng):
        node = Node(3, 1, AlwaysSend(), rng)
        node.deliver_feedback(1, Feedback.SUCCESS, broadcast=False, successful_node=9)
        assert node.active


class TestEventTrace:
    def make_record(self, slot, outcome=SlotOutcome.SILENCE, jammed=False, arrivals=0,
                    active=0, winner=None, broadcasters=()):
        return SlotRecord(
            slot=slot,
            broadcasters=broadcasters,
            jammed=jammed,
            outcome=outcome,
            successful_node=winner,
            active_nodes=active,
            arrivals=arrivals,
        )

    def test_append_enforces_order(self):
        trace = EventTrace()
        trace.append(self.make_record(1))
        with pytest.raises(ValueError):
            trace.append(self.make_record(3))

    def test_queries(self):
        trace = EventTrace()
        trace.append(self.make_record(1, outcome=SlotOutcome.SUCCESS, winner=0, active=2,
                                      arrivals=2, broadcasters=(0,)))
        trace.append(self.make_record(2, jammed=True, outcome=SlotOutcome.COLLISION, active=1))
        trace.append(self.make_record(3))
        assert trace.success_slots() == [1]
        assert trace.jammed_slots() == [2]
        assert trace.active_slot_count() == 2
        assert trace.arrivals_count() == 2
        assert trace.first_success_slot() == 1
        assert trace.successes_in_window(1, 3) == 1
        assert trace.record_for_slot(2).jammed


class TestSimulatorBasics:
    def test_single_node_succeeds_immediately(self):
        simulator = Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=ScheduleAdversary.single_batch(1, slot=1),
            config=SimulatorConfig(horizon=10),
            seed=1,
        )
        result = simulator.run()
        assert result.total_successes == 1
        assert result.node_stats[0].success_slot == 1
        assert result.total_active_slots == 1

    def test_two_always_senders_never_succeed(self):
        simulator = Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=ScheduleAdversary.single_batch(2, slot=1),
            config=SimulatorConfig(horizon=20),
            seed=1,
        )
        result = simulator.run()
        assert result.total_successes == 0
        assert result.summary.collisions == 20
        assert result.unfinished_nodes == 2

    def test_never_senders_produce_silent_active_slots(self):
        simulator = Simulator(
            protocol_factory=make_factory(NeverSend),
            adversary=ScheduleAdversary.single_batch(3, slot=5),
            config=SimulatorConfig(horizon=10),
            seed=1,
        )
        result = simulator.run()
        assert result.total_successes == 0
        assert result.total_active_slots == 6  # slots 5..10
        assert result.summary.silent_slots == 10

    def test_jammed_slot_blocks_lone_sender(self):
        adversary = ScheduleAdversary(arrivals={1: 1}, jammed_slots=[1, 2, 3])
        simulator = Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=adversary,
            config=SimulatorConfig(horizon=5),
            seed=1,
        )
        result = simulator.run()
        assert result.node_stats[0].success_slot == 4
        assert result.total_jammed_slots == 3

    def test_prefix_arrays_lengths_and_monotonicity(self):
        result = Simulator(
            protocol_factory=make_factory(SlottedAloha, 0.2),
            adversary=ScheduleAdversary.single_batch(4, slot=1),
            config=SimulatorConfig(horizon=50),
            seed=3,
        ).run()
        assert len(result.prefix_active) == result.horizon + 1
        for arr in (result.prefix_active, result.prefix_arrivals,
                    result.prefix_jammed, result.prefix_successes):
            assert all(b >= a for a, b in zip(arr, arr[1:]))
        assert result.prefix_arrivals[-1] == 4

    def test_stop_when_drained(self):
        result = Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=ScheduleAdversary.single_batch(1, slot=1),
            config=SimulatorConfig(horizon=1000, stop_when_drained=True),
            seed=1,
        ).run()
        assert result.horizon == 1
        assert result.total_successes == 1

    def test_stop_when_drained_waits_for_future_arrivals(self):
        # A momentarily empty system must not stop the run while the
        # adversary can still inject (the docstring's promise): the second
        # arrival at slot 50 must still be served.
        result = Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=ScheduleAdversary(arrivals={1: 1, 50: 1}),
            config=SimulatorConfig(horizon=1000, stop_when_drained=True),
            seed=1,
        ).run()
        assert result.horizon == 50
        assert result.total_successes == 2

    def test_stop_when_drained_conservative_for_open_ended_arrivals(self):
        from repro.adversary.base import ArrivalStrategy
        from repro.adversary import ComposedAdversary as Composed, NoJamming as NoJam

        class OpenEnded(ArrivalStrategy):
            name = "open-ended"

            def arrivals_for_slot(self, slot):
                return 1 if slot == 1 else 0

            # exhausted() deliberately left at the conservative default False

        result = Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=Composed(OpenEnded(), NoJam()),
            config=SimulatorConfig(horizon=40, stop_when_drained=True),
            seed=1,
        ).run()
        # The strategy never declares exhaustion, so the run must go the
        # full horizon even though the system drained in slot 1.
        assert result.horizon == 40
        assert result.total_successes == 1

    def test_keep_trace(self):
        result = Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=ScheduleAdversary.single_batch(1, slot=1),
            config=SimulatorConfig(horizon=5, keep_trace=True),
            seed=1,
        ).run()
        assert result.trace is not None
        assert len(result.trace) == 5

    def test_max_nodes_guard(self):
        with pytest.raises(ConfigurationError):
            Simulator(
                protocol_factory=make_factory(AlwaysSend),
                adversary=ScheduleAdversary.single_batch(100, slot=1),
                config=SimulatorConfig(horizon=5, max_nodes=10),
                seed=1,
            ).run()

    def test_same_seed_reproducible(self):
        def run_once():
            return Simulator(
                protocol_factory=make_factory(ProbabilityBackoff, 1.0),
                adversary=ComposedAdversary(BatchArrivals(16), NoJamming()),
                config=SimulatorConfig(horizon=300),
                seed=42,
            ).run()

        first, second = run_once(), run_once()
        assert first.total_successes == second.total_successes
        assert first.prefix_successes == second.prefix_successes

    def test_different_seeds_differ(self):
        def run_once(seed):
            return Simulator(
                protocol_factory=make_factory(ProbabilityBackoff, 1.0),
                adversary=ComposedAdversary(BatchArrivals(16), NoJamming()),
                config=SimulatorConfig(horizon=300),
                seed=seed,
            ).run()

        assert run_once(1).prefix_successes != run_once(2).prefix_successes

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(horizon=0)


class TestResultHelpers:
    def make_result(self):
        return Simulator(
            protocol_factory=make_factory(AlwaysSend),
            adversary=ScheduleAdversary.single_batch(1, slot=2),
            config=SimulatorConfig(horizon=10),
            seed=1,
        ).run()

    def test_classical_throughput(self):
        result = self.make_result()
        # One arrival, one active slot -> throughput 1 at the horizon.
        assert result.classical_throughput() == pytest.approx(1.0)

    def test_classical_throughput_inactive_prefix_is_inf(self):
        result = self.make_result()
        assert result.classical_throughput(1) == float("inf")

    def test_latencies_and_describe(self):
        result = self.make_result()
        assert result.latencies() == [1]
        assert result.mean_latency() == 1.0
        assert "always-send" in result.describe()

    def test_broadcast_counts(self):
        result = self.make_result()
        assert result.broadcast_counts() == [1]


class TestTrialRunner:
    def test_run_trials_returns_requested_count(self):
        study = run_trials(
            protocol_factory=make_factory(ProbabilityBackoff, 1.0),
            adversary_factory=lambda: ComposedAdversary(BatchArrivals(8), NoJamming()),
            horizon=200,
            trials=4,
            seed=7,
        )
        assert study.trials == 4

    def test_study_metrics(self):
        study = run_trials(
            protocol_factory=make_factory(AlwaysSend),
            adversary_factory=lambda: ScheduleAdversary.single_batch(1, slot=1),
            horizon=10,
            trials=3,
            seed=7,
        )
        assert study.mean(lambda r: r.total_successes) == 1.0
        assert study.std(lambda r: r.total_successes) == 0.0
        assert study.fraction_satisfying(lambda r: r.total_successes == 1) == 1.0
        row = study.summary_row()
        assert row["trials"] == 3.0

    def test_trials_must_be_positive(self):
        runner = TrialRunner(
            make_factory(AlwaysSend),
            lambda: ScheduleAdversary.single_batch(1),
            SimulatorConfig(horizon=5),
        )
        with pytest.raises(ConfigurationError):
            runner.run(trials=0)

    def test_trials_are_reproducible_with_same_seed(self):
        def study(seed):
            return run_trials(
                protocol_factory=make_factory(ProbabilityBackoff, 1.0),
                adversary_factory=lambda: ComposedAdversary(BatchArrivals(8), NoJamming()),
                horizon=200,
                trials=2,
                seed=seed,
            )

        a, b = study(5), study(5)
        assert [r.total_successes for r in a] == [r.total_successes for r in b]


class TestEndToEndProtocols:
    def test_cjz_batch_drains_without_jamming(self):
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(BatchArrivals(24), NoJamming()),
            horizon=2048,
            trials=2,
            seed=11,
        )
        assert study.mean(lambda r: r.unfinished_nodes) == 0.0
        assert study.mean(lambda r: r.total_successes) == 24.0

    def test_cjz_survives_front_loaded_jamming(self):
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                BatchArrivals(8), FrontLoadedJamming(64)
            ),
            horizon=2048,
            trials=2,
            seed=11,
        )
        assert study.mean(lambda r: r.unfinished_nodes) == 0.0
