"""Unit tests for the lockstep study kernel and its columnar machinery."""

import numpy as np
import pytest

from repro.adversary import (
    AdaptiveSuccessChaser,
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
    ReactiveJamming,
    ScheduledArrivals,
    UniformRandomArrivals,
)
from repro.core import ChenJiangZhengProtocol, GlobalClockVariant, cjz_factory
from repro.core.protocol import CJZLockstepProgram
from repro.errors import ConfigurationError
from repro.protocols import (
    FixedProbabilityProtocol,
    LogUniformFixedProtocol,
    PolynomialBackoff,
    ProbabilityBackoff,
    SawtoothBackoff,
    SlottedAloha,
    TwoChannelNoJamming,
    WindowedBinaryExponentialBackoff,
    make_factory,
)
from repro.protocols.base import AgeProfileLockstepProgram, grow_flat_column
from repro.rng import NodeStreamPool, lockstep_streams_ok
from repro.sim import SimulatorConfig, TrialRunner, run_trials
from repro.sim.backends import LockstepStudyKernel


class TestNodeStreamPool:
    """The pool replays default_rng streams bit for bit."""

    def _pool_and_references(self, count=3):
        sequences = [
            np.random.SeedSequence(99, spawn_key=(i, 0)) for i in range(count)
        ]
        pool = NodeStreamPool(count)
        pool.seed_rows(
            np.arange(count),
            np.stack([s.generate_state(4, np.uint64) for s in sequences]),
        )
        return pool, [np.random.default_rng(s) for s in sequences]

    def test_streams_verified_on_this_numpy(self):
        assert lockstep_streams_ok()

    def test_doubles_match_generator_random(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        for _ in range(50):
            assert np.array_equal(
                pool.doubles(rows), np.array([g.random() for g in refs])
            )

    def test_pow2_batch_matches_bounded_integers(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        for k, count in [(1, 2), (3, 5), (7, 4), (20, 3)]:
            mine = pool.pow2_batch(rows, k, count)
            theirs = np.stack(
                [g.integers(1 << k, 2 << k, size=count) for g in refs], axis=1
            )
            assert np.array_equal(mine, theirs)

    def test_bounded_u32_matches_integers(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        for bound in [1, 2, 3, 10, 1000, 1 << 30]:
            mine = pool.bounded_u32(rows, np.uint64(bound - 1))
            theirs = np.array([g.integers(0, bound) for g in refs])
            assert np.array_equal(mine.astype(np.int64), theirs)

    def test_interleaved_kinds_share_the_buffer_correctly(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        # bounded (buffers the high half) -> double (skips the buffer) ->
        # bounded (consumes the buffered half).
        assert np.array_equal(
            pool.bounded_u32(rows, np.uint64(6)).astype(np.int64),
            np.array([g.integers(0, 7) for g in refs]),
        )
        assert np.array_equal(
            pool.doubles(rows), np.array([g.random() for g in refs])
        )
        assert np.array_equal(
            pool.bounded_u32(rows, np.uint64(12)).astype(np.int64),
            np.array([g.integers(0, 13) for g in refs]),
        )

    def test_bounded_scalar_wide_ranges(self):
        pool, refs = self._pool_and_references()
        for bound in [5, 1 << 32, (1 << 34) + 7, 1 << 63]:
            for row, generator in enumerate(refs):
                assert pool.bounded_scalar(row, bound - 1) == int(
                    generator.integers(0, bound)
                )

    def test_zero_range_consumes_nothing(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        assert np.array_equal(
            pool.bounded_u32(rows, np.uint64(0)), np.zeros(3, dtype=np.uint64)
        )
        assert np.array_equal(
            pool.doubles(rows), np.array([g.random() for g in refs])
        )


class TestGrowFlatColumn:
    def test_preserves_trial_blocks(self):
        column = np.arange(6, dtype=np.int64)  # 2 trials x capacity 3
        grown = grow_flat_column(column, trials=2, old_capacity=3, new_capacity=5, fill=-1)
        assert grown.tolist() == [0, 1, 2, -1, -1, 3, 4, 5, -1, -1]

    def test_two_dimensional_columns(self):
        column = np.arange(8, dtype=np.int64).reshape(4, 2)  # 2 trials x cap 2
        grown = grow_flat_column(column, trials=2, old_capacity=2, new_capacity=3, fill=0)
        assert grown.shape == (6, 2)
        assert grown[2].tolist() == [0, 0]
        assert grown[3].tolist() == [4, 5]


def batch_jam_factory():
    return ComposedAdversary(BatchArrivals(6), RandomFractionJamming(0.25))


class AlohaVariant(SlottedAloha):
    """A subclass: it could override any hook, so it gets no program."""


class TestEligibility:
    def test_program_less_protocol_rejected_explicitly(self):
        with pytest.raises(ConfigurationError, match="lockstep"):
            run_trials(
                protocol_factory=make_factory(AlohaVariant, 0.2),
                adversary_factory=batch_jam_factory,
                horizon=50,
                trials=2,
                seed=1,
                backend="lockstep",
            )

    def test_keep_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="keep_trace"):
            run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=batch_jam_factory,
                horizon=50,
                trials=2,
                seed=1,
                backend="lockstep",
                keep_trace=True,
            )

    def test_subclass_opts_out_of_the_program(self):
        class Variant(ChenJiangZhengProtocol):
            pass

        assert Variant().lockstep_program() is None
        assert ChenJiangZhengProtocol().lockstep_program() is not None
        assert GlobalClockVariant().lockstep_program() is not None

    def test_windowed_family_programs_exist(self):
        assert WindowedBinaryExponentialBackoff().lockstep_program() is not None
        assert SawtoothBackoff().lockstep_program() is not None
        assert PolynomialBackoff().lockstep_program() is not None
        assert SlottedAloha(0.2).lockstep_program() is not None

    def test_vector_eligible_and_two_channel_programs_exist(self):
        for protocol in (
            SlottedAloha(0.2),
            ProbabilityBackoff(),
            FixedProbabilityProtocol(lambda i: 0.5),
            LogUniformFixedProtocol(),
        ):
            assert isinstance(
                protocol.lockstep_program(), AgeProfileLockstepProgram
            )
        assert isinstance(
            TwoChannelNoJamming().lockstep_program(), CJZLockstepProgram
        )

        class BackoffVariant(ProbabilityBackoff):
            pass

        class TwoChannelVariant(TwoChannelNoJamming):
            pass

        assert BackoffVariant().lockstep_program() is None
        assert TwoChannelVariant().lockstep_program() is None

    def test_kernel_reports_reason(self):
        kernel = LockstepStudyKernel()
        reason = kernel.unsupported_reason(
            make_factory(AlohaVariant, 0.2),
            batch_jam_factory,
            SimulatorConfig(horizon=10),
        )
        assert "lockstep program" in reason
        assert kernel.supports_study(
            cjz_factory(), batch_jam_factory, SimulatorConfig(horizon=10)
        )


class TestAutoLadder:
    def test_auto_prefers_lockstep_for_feedback_protocols(self):
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                BatchArrivals(12), RandomFractionJamming(0.25)
            ),
            horizon=80,
            trials=3,
            seed=5,
            backend="auto",
        )
        assert all(r.backend == "lockstep" for r in study)

    def test_auto_keeps_batched_study_for_vector_protocols(self):
        study = run_trials(
            protocol_factory=make_factory(SlottedAloha, 0.2),
            adversary_factory=batch_jam_factory,
            horizon=80,
            trials=3,
            seed=5,
            backend="auto",
        )
        assert all(r.backend == "batched-study" for r in study)

    def test_auto_serves_adaptive_adversaries_via_lockstep(self):
        # Adaptive adversaries hide their arrival shape, so auto escalates
        # on the trial count alone.
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: AdaptiveSuccessChaser(
                jam_fraction=0.2, total_arrival_budget=12
            ),
            horizon=120,
            trials=8,
            seed=5,
            backend="auto",
        )
        assert all(r.backend == "lockstep" for r in study)

    @staticmethod
    def _sparse_study(trials, backend="auto"):
        return run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                UniformRandomArrivals(10, (1, 60)), RandomFractionJamming(0.2)
            ),
            horizon=120,
            trials=trials,
            seed=5,
            backend=backend,
        )

    def test_auto_keeps_small_sparse_studies_per_trial(self):
        # A single trial of a thin spread workload carries too little
        # concurrent population for the lockstep tier to pay off.
        study = self._sparse_study(trials=1)
        assert all(r.backend == "reference" for r in study)
        # An explicit request still runs lockstep.
        explicit = self._sparse_study(trials=1, backend="lockstep")
        assert all(r.backend == "lockstep" for r in explicit)

    def test_auto_runs_the_same_sparse_study_lockstep_from_two_trials(self):
        single = self._sparse_study(trials=1)
        double = self._sparse_study(trials=2)
        assert [r.backend for r in single] == ["reference"]
        assert [r.backend for r in double] == ["lockstep", "lockstep"]
        # Trial seeds do not depend on the trial count or the backend.
        assert single.results[0].summary == double.results[0].summary

    def test_auto_runs_a_single_batch_trial_lockstep(self):
        def study(count):
            return run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(count), RandomFractionJamming(0.2)
                ),
                horizon=120,
                trials=1,
                seed=5,
                backend="auto",
            )

        assert study(31).results[0].backend == "reference"
        assert study(32).results[0].backend == "lockstep"

    def test_explain_backend_states_the_rule_inputs(self):
        runner = TrialRunner(
            cjz_factory(),
            lambda: ComposedAdversary(
                UniformRandomArrivals(10, (1, 60)), RandomFractionJamming(0.2)
            ),
            SimulatorConfig(horizon=120),
        )
        rows = {row["backend"]: row for row in runner.explain_backend(1)}
        assert rows["lockstep"]["status"] == "skipped"
        assert "trials=1" in rows["lockstep"]["reason"]
        assert "peak single-slot arrivals=1" in rows["lockstep"]["reason"]
        rows = {row["backend"]: row for row in runner.explain_backend(2)}
        assert rows["lockstep"]["status"] in ("selected", "eligible")


class TestCompiledRungUnderAuto:
    """``auto`` skips the lockstep-jit rung when it cannot run at all."""

    @staticmethod
    def _study(backend):
        return run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=batch_jam_factory,
            horizon=60,
            trials=2,
            seed=3,
            backend=backend,
        )

    def test_auto_study_is_clean_with_the_interpreter_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        study = self._study("auto")
        assert {r.backend for r in study} == {"lockstep"}
        assert study.health.clean
        assert study.summary_row()["health_demotions"] == 0.0
        runner = TrialRunner(
            cjz_factory(), batch_jam_factory, SimulatorConfig(horizon=60)
        )
        rows = {row["backend"]: row for row in runner.explain_backend(2)}
        assert rows["lockstep-jit"]["status"] == "skipped"
        assert "interpreter is off" in rows["lockstep-jit"]["reason"]
        assert rows["lockstep"]["status"] == "selected"

    def test_explicit_request_records_one_demotion(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        study = self._study("lockstep-jit")
        assert {r.backend for r in study} == {"lockstep"}
        assert len(study.health.demotions) == 1
        assert "interpreter is off" in study.health.demotions[0].detail

    def test_auto_skips_programs_without_compiled_tables(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_FORCE_PYTHON", "1")
        monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
        aloha = make_factory(SlottedAloha, 0.2)

        def reactive():
            return ComposedAdversary(BatchArrivals(6), ReactiveJamming(0.25))

        study = run_trials(
            protocol_factory=aloha,
            adversary_factory=reactive,
            horizon=60,
            trials=2,
            seed=3,
            backend="auto",
        )
        assert {r.backend for r in study} == {"lockstep"}
        assert study.health.clean
        runner = TrialRunner(aloha, reactive, SimulatorConfig(horizon=60))
        rows = {row["backend"]: row for row in runner.explain_backend(2)}
        assert rows["lockstep-jit"]["status"] == "skipped"
        assert "compiled tables" in rows["lockstep-jit"]["reason"]
        assert rows["lockstep"]["status"] == "selected"


class TestKernelBehaviour:
    def test_dynamic_capacity_growth_stays_identical(self):
        # The chaser's arrivals are revealed slot by slot; a budget well past
        # the initial per-trial capacity forces the rectangular layout to
        # grow and re-map mid-run.
        def adversary():
            return AdaptiveSuccessChaser(
                jam_fraction=0.1,
                arrival_budget_per_success=3,
                total_arrival_budget=60,
                jam_burst=2,
                seed_arrivals=4,
            )

        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=adversary,
            horizon=500,
            trials=3,
            seed=11,
        )
        reference = run_trials(backend="reference", **kwargs)
        lockstep = run_trials(backend="lockstep", **kwargs)
        assert max(r.total_arrivals for r in lockstep) > 16
        for a, b in zip(reference, lockstep):
            assert a.summary == b.summary
            assert a.node_stats == b.node_stats

    def test_max_nodes_enforced_like_reference(self):
        config = SimulatorConfig(horizon=40, max_nodes=10)

        def runner(backend):
            return TrialRunner(
                cjz_factory(),
                lambda: ComposedAdversary(
                    BatchArrivals(30), RandomFractionJamming(0.0)
                ),
                config,
                backend=backend,
            )

        with pytest.raises(ConfigurationError, match="max_nodes=10 at slot 1"):
            runner("reference").run(trials=2, seed=3)
        with pytest.raises(ConfigurationError, match="max_nodes=10 at slot 1"):
            runner("lockstep").run(trials=2, seed=3)

    def test_max_nodes_enforced_on_the_dynamic_path(self):
        config = SimulatorConfig(horizon=200, max_nodes=12)
        runner = TrialRunner(
            cjz_factory(),
            lambda: AdaptiveSuccessChaser(
                jam_fraction=0.0,
                arrival_budget_per_success=4,
                seed_arrivals=6,
            ),
            config,
            backend="lockstep",
        )
        with pytest.raises(ConfigurationError, match="max_nodes=12"):
            runner.run(trials=2, seed=3)

    def test_results_report_lockstep_backend_and_adversary_names(self):
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                UniformRandomArrivals(8, (1, 40)), ReactiveJamming(0.2, burst=4)
            ),
            horizon=90,
            trials=2,
            seed=9,
            backend="lockstep",
        )
        for result in study:
            assert result.backend == "lockstep"
            assert "reactive-jam" in result.adversary_name
            assert result.protocol_name == "chen-jiang-zheng"

    def test_consumed_strategies_are_rebuilt_for_the_generic_driver(self):
        # An arrival strategy that consumes randomness inside precompile()
        # and then bails leaves the reactive builder's instances consumed;
        # the generic per-slot fallback must rebuild fresh adversaries (the
        # rebuild is stream-identical) instead of reusing them.
        from repro.adversary.base import ArrivalStrategy

        class HalfBakedArrivals(ArrivalStrategy):
            name = "half-baked"
            adaptive = False

            def setup(self, rng, horizon=None):
                self._rng = rng

            def arrivals_for_slot(self, slot):
                return int(self._rng.random() < 0.08)

            def precompile(self, horizon):
                self._rng.random()  # consumes, then gives up
                return None

        def adversary():
            return ComposedAdversary(
                HalfBakedArrivals(), ReactiveJamming(0.2, burst=3)
            )

        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=adversary,
            horizon=120,
            trials=3,
            seed=3,
        )
        reference = run_trials(backend="reference", **kwargs)
        lockstep = run_trials(backend="lockstep", **kwargs)
        for a, b in zip(reference, lockstep):
            assert a.summary == b.summary
            assert a.node_stats == b.node_stats

    def test_trial_blocking_stays_identical(self, monkeypatch):
        # Oversized studies run in contiguous trial blocks (bounded peak
        # memory); force two-trial blocks and require bit-identity.
        import repro.sim.backends.lockstep as lockstep_module

        monkeypatch.setattr(lockstep_module, "_BLOCK_TRIAL_SLOTS", 302)
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=batch_jam_factory,
            horizon=150,
            trials=7,
            seed=5,
        )
        lockstep = run_trials(backend="lockstep", **kwargs)
        reference = run_trials(backend="reference", **kwargs)
        assert all(r.backend == "lockstep" for r in lockstep)
        for a, b in zip(reference, lockstep):
            assert a.summary == b.summary
            assert a.node_stats == b.node_stats
            assert a.prefix_successes == b.prefix_successes

    def test_pipeline_reduction_runs_on_lockstep(self):
        from repro.metrics.pipeline import MetricPipeline, SuccessTimelineReducer

        def study(backend):
            return run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=batch_jam_factory,
                horizon=100,
                trials=3,
                seed=4,
                backend=backend,
                pipeline=MetricPipeline([SuccessTimelineReducer()]),
            )

        assert study("lockstep").metrics() == study("reference").metrics()


class TestIdleSkip:
    def test_idle_slots_reach_neither_program_nor_driver(self, monkeypatch):
        """Slots in which no trial holds a live node are jumped: the program
        steps exactly once per busy slot, and the driver is asked for no
        skipped slot."""
        import repro.sim.backends.lockstep as lockstep_module

        steps, actions = [], []
        real_step = CJZLockstepProgram.step

        def step(program, rows, slot):
            steps.append(slot)
            return real_step(program, rows, slot)

        real_build = lockstep_module.build_lockstep_driver

        def build(*args):
            driver = real_build(*args)
            real_actions = driver.actions

            def counted(slot, trial_active):
                actions.append(slot)
                return real_actions(slot, trial_active)

            driver.actions = counted
            return driver

        monkeypatch.setattr(CJZLockstepProgram, "step", step)
        monkeypatch.setattr(lockstep_module, "build_lockstep_driver", build)
        horizon = 700
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                ScheduledArrivals({30: 3, 450: 2}), RandomFractionJamming(0.2)
            ),
            horizon=horizon,
            trials=2,
            seed=5,
        )
        study = run_trials(backend="lockstep", **kwargs)
        busy = set()
        for result in study:
            live = np.diff(np.asarray(result.counters.active))
            busy.update((np.flatnonzero(live) + 1).tolist())
        assert steps == sorted(busy)
        assert actions == steps
        assert len(steps) < horizon // 2
        for a, b in zip(run_trials(backend="reference", **kwargs), study):
            assert a.summary == b.summary
            assert a.prefix_jammed == b.prefix_jammed
