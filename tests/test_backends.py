"""Unit tests for the pluggable slot-kernel architecture."""

import numpy as np
import pytest

from repro.adversary import (
    AdaptiveSuccessChaser,
    BatchArrivals,
    ComposedAdversary,
    NoJamming,
    PoissonArrivals,
    RandomFractionJamming,
    ReactiveJamming,
    ScheduleAdversary,
)
from repro.core import cjz_factory
from repro.errors import ConfigurationError
from repro.protocols import (
    BackonBackoffCD,
    ProbabilityBackoff,
    SlottedAloha,
    WindowedBinaryExponentialBackoff,
    make_factory,
)
from repro.sim import (
    Simulator,
    SimulatorConfig,
    TrialRunner,
    available_backends,
    available_study_backends,
    run_trials,
)
from repro.sim.backends import batched as batched_module
from repro.sim.backends import vectorized as vectorized_module


def make_simulator(factory, adversary, backend="auto", horizon=128, seed=1, **kwargs):
    return Simulator(
        protocol_factory=factory,
        adversary=adversary,
        config=SimulatorConfig(horizon=horizon, **kwargs),
        seed=seed,
        backend=backend,
    )


class TestBackendSelection:
    def test_available_backends(self):
        assert available_backends() == ("auto", "reference", "vectorized")

    def test_available_study_backends(self):
        assert available_study_backends() == (
            "auto",
            "batched-study",
            "lockstep",
            "lockstep-jit",
            "reference",
            "vectorized",
        )

    @pytest.mark.parametrize("backend", ["batched-study", "lockstep", "lockstep-jit"])
    def test_simulator_rejects_study_backend(self, backend):
        with pytest.raises(ConfigurationError, match="whole trial studies"):
            make_simulator(
                make_factory(SlottedAloha, 0.2),
                ScheduleAdversary.single_batch(4),
                backend=backend,
            )

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            make_simulator(
                make_factory(SlottedAloha, 0.2),
                ScheduleAdversary.single_batch(4),
                backend="warp-drive",
            )

    def test_auto_picks_vectorized_for_eligible_protocol(self):
        result = make_simulator(
            make_factory(SlottedAloha, 0.2), ScheduleAdversary.single_batch(4)
        ).run()
        assert result.backend == "vectorized"

    def test_auto_falls_back_for_adaptive_protocol(self):
        result = make_simulator(cjz_factory(), ScheduleAdversary.single_batch(4)).run()
        assert result.backend == "reference"

    def test_auto_falls_back_for_adaptive_adversary(self):
        result = make_simulator(
            make_factory(SlottedAloha, 0.2),
            ComposedAdversary(BatchArrivals(4), ReactiveJamming(0.2)),
        ).run()
        assert result.backend == "reference"

    def test_explicit_vectorized_rejects_adaptive_protocol(self):
        simulator = make_simulator(
            cjz_factory(), ScheduleAdversary.single_batch(4), backend="vectorized"
        )
        with pytest.raises(ConfigurationError, match="vector-eligible"):
            simulator.run()

    def test_explicit_vectorized_rejects_adaptive_adversary(self):
        simulator = make_simulator(
            make_factory(SlottedAloha, 0.2),
            AdaptiveSuccessChaser(),
            backend="vectorized",
        )
        with pytest.raises(ConfigurationError, match="adaptive"):
            simulator.run()

    def test_explicit_reference_always_allowed(self):
        result = make_simulator(
            make_factory(SlottedAloha, 0.2),
            ScheduleAdversary.single_batch(4),
            backend="reference",
        ).run()
        assert result.backend == "reference"


class TestResultProvenance:
    def test_wall_time_and_rate_recorded(self):
        result = make_simulator(
            make_factory(SlottedAloha, 0.2), ScheduleAdversary.single_batch(4)
        ).run()
        assert result.wall_time_seconds > 0.0
        assert result.slots_per_second > 0.0
        assert result.slots_per_second == result.horizon / result.wall_time_seconds

    def test_channel_counters_match_reference(self):
        def run(backend):
            simulator = make_simulator(
                make_factory(SlottedAloha, 0.2),
                ComposedAdversary(BatchArrivals(6), RandomFractionJamming(0.2)),
                backend=backend,
                seed=3,
            )
            simulator.run()
            return (
                simulator.channel.slots_resolved,
                simulator.channel.successes,
                simulator.channel.jammed_slots,
            )

        assert run("reference") == run("vectorized")

    def test_memory_guard_falls_back_to_replay(self, monkeypatch):
        reference = make_simulator(
            make_factory(SlottedAloha, 0.2),
            ComposedAdversary(BatchArrivals(8), RandomFractionJamming(0.25)),
            backend="reference",
            seed=5,
        ).run()
        monkeypatch.setattr(vectorized_module, "_MAX_MATRIX_BYTES", 1)
        fallback = make_simulator(
            make_factory(SlottedAloha, 0.2),
            ComposedAdversary(BatchArrivals(8), RandomFractionJamming(0.25)),
            backend="vectorized",
            seed=5,
        ).run()
        assert fallback.backend == "reference"  # replayed through the slot loop
        assert fallback.summary == reference.summary
        assert fallback.prefix_successes == reference.prefix_successes

    def test_max_nodes_guard_matches_reference_message(self):
        simulator = make_simulator(
            make_factory(SlottedAloha, 0.2),
            ScheduleAdversary(arrivals={3: 100}),
            backend="vectorized",
            max_nodes=10,
        )
        with pytest.raises(ConfigurationError, match="max_nodes=10 at slot 3"):
            simulator.run()


class TestPrecompilation:
    def test_composed_adversary_precompile_matches_live_loop(self):
        horizon = 300

        def materialize(live: bool):
            adversary = ComposedAdversary(
                PoissonArrivals(0.1), RandomFractionJamming(0.3)
            )
            adversary.setup(np.random.default_rng(42), horizon)
            if live:
                arrivals = [0] + [
                    adversary.action_for_slot(s).arrivals
                    for s in range(1, horizon + 1)
                ]
                adversary2 = ComposedAdversary(
                    PoissonArrivals(0.1), RandomFractionJamming(0.3)
                )
                adversary2.setup(np.random.default_rng(42), horizon)
                jammed = [False] + [
                    adversary2.action_for_slot(s).jam for s in range(1, horizon + 1)
                ]
                return arrivals, jammed
            schedule = adversary.precompile(horizon)
            return schedule.arrivals.tolist(), schedule.jammed.tolist()

        assert materialize(live=True) == materialize(live=False)

    def test_adaptive_adversary_does_not_precompile(self):
        adversary = ComposedAdversary(BatchArrivals(4), ReactiveJamming(0.2))
        adversary.setup(np.random.default_rng(0), 50)
        assert not adversary.precompilable
        assert adversary.precompile(50) is None

    def test_schedule_adversary_precompiles(self):
        adversary = ScheduleAdversary(arrivals={2: 3, 7: 1}, jammed_slots=[4])
        schedule = adversary.precompile(10)
        assert schedule.total_arrivals == 4
        assert schedule.arrivals[2] == 3 and schedule.arrivals[7] == 1
        assert bool(schedule.jammed[4]) and not bool(schedule.jammed[5])


class TestPopulationApi:
    def test_aloha_probability_is_constant(self):
        protocol = SlottedAloha(0.25)
        protocol.on_arrival(1, np.random.default_rng(0))
        vector = protocol.age_probability_vector(16)
        assert np.allclose(vector[1:], 0.25) and vector[0] == 0.0

    def test_probability_backoff_decays(self):
        protocol = ProbabilityBackoff(1.0)
        protocol.on_arrival(1, np.random.default_rng(0))
        vector = protocol.age_probability_vector(8)
        assert vector[1] == 1.0 and vector[4] == 0.25
        assert vector[8] == pytest.approx(1 / 8)

    def test_windowed_beb_reports_state_conditional_probability(self):
        protocol = WindowedBinaryExponentialBackoff(initial_window=1)
        protocol.on_arrival(5, np.random.default_rng(0))
        assert not protocol.vector_eligible
        assert protocol.age_probability_vector(8) is None


class TestExhaustedHooks:
    def test_batch_arrivals_exhausted_after_batch_slot(self):
        strategy = BatchArrivals(4, slot=10)
        assert not strategy.exhausted(9)
        assert strategy.exhausted(10)

    def test_poisson_conservative_without_bound(self):
        strategy = PoissonArrivals(0.5)
        strategy.setup(np.random.default_rng(0), horizon=None)
        assert not strategy.exhausted(10**9)
        bounded = PoissonArrivals(0.5, last_slot=100)
        bounded.setup(np.random.default_rng(0))
        assert not bounded.exhausted(99)
        assert bounded.exhausted(100)
        zero_rate = PoissonArrivals(0.0)
        zero_rate.setup(np.random.default_rng(0))
        assert zero_rate.exhausted(1)

    def test_composed_adversary_delegates(self):
        adversary = ComposedAdversary(BatchArrivals(4, slot=5), NoJamming())
        assert not adversary.arrivals_exhausted(4)
        assert adversary.arrivals_exhausted(5)

    def test_adaptive_chaser_budget(self):
        adversary = AdaptiveSuccessChaser(total_arrival_budget=1, seed_arrivals=1)
        adversary.setup(np.random.default_rng(0))
        assert not adversary.arrivals_exhausted(1)
        adversary.action_for_slot(1)  # injects the seed node, exhausting the budget
        assert adversary.arrivals_exhausted(1)


def _reference_run(factory, adversary_factory, horizon=150, seed=5, **kwargs):
    return make_simulator(
        factory, adversary_factory(), backend="reference", horizon=horizon,
        seed=seed, **kwargs
    ).run()


class _AgeVectorlessAloha(SlottedAloha):
    """vector_eligible but without a usable age probability vector."""

    def age_probability_vector(self, max_age):
        return None


class TestReplayFallback:
    """The vectorized kernel's replay fallback is bit-identical to reference."""

    def _adversary(self):
        return ComposedAdversary(BatchArrivals(10), RandomFractionJamming(0.3))

    def test_oversized_matrix_replay_is_bit_identical(self, monkeypatch):
        reference = _reference_run(make_factory(SlottedAloha, 0.2), self._adversary)
        monkeypatch.setattr(vectorized_module, "_MAX_MATRIX_BYTES", 1)
        fallback = make_simulator(
            make_factory(SlottedAloha, 0.2),
            self._adversary(),
            backend="vectorized",
            horizon=150,
            seed=5,
        ).run()
        assert fallback.backend == "reference"
        assert fallback.summary == reference.summary
        assert fallback.prefix_active == reference.prefix_active
        assert fallback.prefix_arrivals == reference.prefix_arrivals
        assert fallback.prefix_jammed == reference.prefix_jammed
        assert fallback.prefix_successes == reference.prefix_successes
        assert fallback.node_stats == reference.node_stats

    def test_missing_age_vector_replay_is_bit_identical(self):
        factory = make_factory(_AgeVectorlessAloha, 0.2)
        reference = _reference_run(factory, self._adversary)
        # Explicit vectorized accepts the protocol (it is vector-eligible)
        # but must fall back to the replayed reference loop at run time.
        fallback = make_simulator(
            factory, self._adversary(), backend="vectorized", horizon=150, seed=5
        ).run()
        assert fallback.backend == "reference"
        assert fallback.summary == reference.summary
        assert fallback.prefix_successes == reference.prefix_successes
        assert fallback.node_stats == reference.node_stats

    def test_missing_age_vector_study_falls_back(self):
        study = run_trials(
            protocol_factory=make_factory(_AgeVectorlessAloha, 0.2),
            adversary_factory=self._adversary,
            horizon=80,
            trials=3,
            seed=2,
            backend="batched-study",
        )
        reference = run_trials(
            protocol_factory=make_factory(_AgeVectorlessAloha, 0.2),
            adversary_factory=self._adversary,
            horizon=80,
            trials=3,
            seed=2,
            backend="reference",
        )
        assert [r.backend for r in study] == ["reference"] * 3
        assert [r.summary for r in study] == [r.summary for r in reference]
        assert [r.node_stats for r in study] == [r.node_stats for r in reference]


class TestBatchedStudyBackend:
    def test_explicit_batched_rejects_adaptive_protocol(self):
        from repro.core import cjz_factory

        with pytest.raises(ConfigurationError, match="vector-eligible"):
            run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=lambda: ScheduleAdversary.single_batch(4),
                horizon=50,
                trials=2,
                seed=1,
                backend="batched-study",
            )

    def test_explicit_batched_rejects_adaptive_adversary(self):
        with pytest.raises(ConfigurationError, match="adaptive"):
            run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.2),
                adversary_factory=lambda: AdaptiveSuccessChaser(),
                horizon=50,
                trials=2,
                seed=1,
                backend="batched-study",
            )

    def test_auto_with_keep_trace_falls_back(self):
        study = run_trials(
            protocol_factory=make_factory(SlottedAloha, 0.3),
            adversary_factory=lambda: ScheduleAdversary.single_batch(3),
            horizon=40,
            trials=2,
            seed=1,
            backend="auto",
            keep_trace=True,
        )
        assert all(r.backend == "vectorized" for r in study)
        assert all(r.trace is not None for r in study)

    def test_adaptive_study_auto_uses_lockstep(self):
        # The columnar age-profile program runs a study against an adaptive
        # adversary lockstep at any trial count, seed for seed with the
        # per-trial reference loop.
        def study(trials, backend="auto"):
            return run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.2),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(4), ReactiveJamming(0.2)
                ),
                horizon=60,
                trials=trials,
                seed=1,
                backend=backend,
            )

        single = study(1)
        assert [r.backend for r in single] == ["lockstep"]
        assert [r.backend for r in study(2)] == ["lockstep", "lockstep"]
        reference = study(1, backend="reference")
        assert single.results[0].summary == reference.results[0].summary

    def test_max_nodes_guard_matches_reference_message(self):
        from repro.sim import TrialRunner

        runner = TrialRunner(
            make_factory(SlottedAloha, 0.2),
            lambda: ScheduleAdversary(arrivals={3: 100}),
            SimulatorConfig(horizon=20, max_nodes=10),
            backend="batched-study",
        )
        with pytest.raises(ConfigurationError, match="max_nodes=10 at slot 3"):
            runner.run(trials=2, seed=1)

    def test_block_splitting_preserves_results(self, monkeypatch):
        def study(backend):
            return run_trials(
                protocol_factory=make_factory(SlottedAloha, 0.3),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(5), RandomFractionJamming(0.2)
                ),
                horizon=60,
                trials=6,
                seed=9,
                backend=backend,
            )

        reference = study("reference")
        # Force one trial per block (5 nodes x 61 slots = 305 elements).
        monkeypatch.setattr(batched_module, "_MAX_BLOCK_ELEMENTS", 400)
        batched = study("batched-study")
        assert all(r.backend == "batched-study" for r in batched)
        assert [r.summary for r in batched] == [r.summary for r in reference]
        assert [r.node_stats for r in batched] == [
            r.node_stats for r in reference
        ]

    def test_single_oversized_trial_falls_back_per_trial(self, monkeypatch):
        monkeypatch.setattr(batched_module, "_MAX_BLOCK_ELEMENTS", 100)
        study = run_trials(
            protocol_factory=make_factory(SlottedAloha, 0.3),
            adversary_factory=lambda: ScheduleAdversary.single_batch(5),
            horizon=60,
            trials=2,
            seed=3,
            backend="batched-study",
        )
        # The whole-study fast path bails; trials escalate to the per-trial
        # ladder, which still produces identical results.
        assert all(r.backend == "vectorized" for r in study)

    def test_wall_time_recorded(self):
        study = run_trials(
            protocol_factory=make_factory(SlottedAloha, 0.2),
            adversary_factory=lambda: ScheduleAdversary.single_batch(4),
            horizon=50,
            trials=3,
            seed=1,
            backend="batched-study",
        )
        assert all(r.wall_time_seconds > 0.0 for r in study)
        assert all(r.slots_per_second > 0.0 for r in study)


def _cjz_batch():
    return ComposedAdversary(BatchArrivals(8), RandomFractionJamming(0.2))


def _aloha_batch():
    return ComposedAdversary(BatchArrivals(6), RandomFractionJamming(0.2))


def _aloha_reactive():
    return ComposedAdversary(BatchArrivals(6), ReactiveJamming(0.25))


class TestExplainMatchesDispatch:
    """``explain_backend`` formats the walk dispatch runs, so they agree."""

    @pytest.mark.parametrize(
        "protocol, adversary, trials, keep_trace, executed",
        [
            pytest.param(cjz_factory(), _cjz_batch, 1, False, "lockstep", id="cjz-1"),
            pytest.param(cjz_factory(), _cjz_batch, 2, False, "lockstep", id="cjz-2"),
            pytest.param(
                make_factory(SlottedAloha, 0.2),
                _aloha_batch,
                2,
                False,
                "lockstep",
                id="aloha-oblivious",
            ),
            pytest.param(
                make_factory(SlottedAloha, 0.2),
                _aloha_reactive,
                1,
                False,
                "lockstep",
                id="aloha-reactive-1",
            ),
            pytest.param(
                make_factory(SlottedAloha, 0.2),
                _aloha_batch,
                2,
                True,
                "vectorized",
                id="aloha-keep-trace",
            ),
            pytest.param(
                make_factory(BackonBackoffCD),
                _aloha_batch,
                2,
                False,
                "reference",
                id="backon-backoff-cd",
            ),
        ],
    )
    def test_selected_row_names_the_executed_backend(
        self, monkeypatch, protocol, adversary, trials, keep_trace, executed
    ):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        runner = TrialRunner(
            protocol,
            adversary,
            SimulatorConfig(horizon=60, keep_trace=keep_trace),
        )
        rows = runner.explain_backend()
        selected = [row["backend"] for row in rows if row["status"] == "selected"]
        # auto never takes the batched rung: it runs only when pinned.
        (batched,) = [row for row in rows if row["backend"] == "batched-study"]
        assert batched["status"] == "skipped"
        assert "only when pinned" in batched["reason"]
        study = runner.run(trials, seed=3)
        assert {r.backend for r in study} == {executed}
        assert selected in ([executed], [f"per-trial ({executed})"])
        # No rung reads the trial count, so one trial on the root tree
        # takes the same rung.
        assert runner.run_single(3).backend == executed

    @pytest.mark.parametrize("backend", ["batched-study", "vectorized"])
    def test_explicit_backend_that_cannot_run_raises_like_run(self, backend):
        runner = TrialRunner(
            cjz_factory(), _cjz_batch, SimulatorConfig(horizon=60), backend=backend
        )
        with pytest.raises(ConfigurationError) as explained:
            runner.explain_backend()
        with pytest.raises(ConfigurationError) as ran:
            runner.run(2, seed=1)
        assert str(explained.value) == str(ran.value)
        assert f"backend {backend!r} unavailable" in str(ran.value)


class TestInterpreterMode:
    def test_numba_is_asked_for_once_and_switches_are_read_per_call(
        self, monkeypatch
    ):
        """Without numba a retried import searches the whole import path,
        so its importability is asked once; the two environment switches
        still decide every call."""
        import builtins

        from repro.sim.backends import compiled

        attempts = []
        real_import = builtins.__import__

        def counting_import(name, *args, **kwargs):
            if name == "numba":
                attempts.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
        monkeypatch.delenv("REPRO_COMPILED_FORCE_PYTHON", raising=False)
        compiled._numba_importable.cache_clear()
        monkeypatch.setattr(builtins, "__import__", counting_import)
        modes = {compiled.interpreter_mode() for _ in range(100)}
        assert len(attempts) <= 1
        (unswitched,) = modes
        assert unswitched in ("numba", "off")

        monkeypatch.setenv("REPRO_COMPILED_FORCE_PYTHON", "1")
        assert compiled.interpreter_mode() == "python"
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        assert compiled.interpreter_mode() == "off"
        monkeypatch.delenv("REPRO_COMPILED_FORCE_PYTHON")
        assert compiled.interpreter_mode() == "off"
        monkeypatch.delenv("REPRO_DISABLE_NUMBA")
        assert compiled.interpreter_mode() == unswitched
        assert len(attempts) <= 1
