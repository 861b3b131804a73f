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
from repro.core import (
    AlgorithmParameters,
    ChenJiangZhengProtocol,
    GlobalClockVariant,
    cjz_factory,
)
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
from repro.rng import NodeStreamPool, lockstep_streams_ok, pcg64_bulk_init
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
        # One exponent per row, 0 (numpy's zero-range path: yields 1 and
        # consumes nothing) through 20, shuffled across the rows.
        pool, refs = self._pool_and_references(21)
        rows = np.arange(21)
        exponents = np.random.default_rng(3).permutation(21)
        for count in (1, 3):
            mine = pool.pow2_batch(rows, exponents, count)
            theirs = np.stack(
                [
                    g.integers(1 << int(k), 2 << int(k), size=count)
                    for g, k in zip(refs, exponents)
                ],
                axis=1,
            )
            assert np.array_equal(mine, theirs)
        assert np.array_equal(
            pool.doubles(rows), np.array([g.random() for g in refs])
        )

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

    def test_mixed_draws_match_real_generators_at_the_arithmetic_edges(self):
        """64 random streams through every draw kind, each draw checked
        against real generators.  Python-int replays of the real generators'
        states show that the run reached the step's edges: a low-word carry
        into the high word, and output rotations of 0 and 63."""
        mult = 0x2360ED051FC65DA44385DF649FCCF645
        mask64, mask128 = (1 << 64) - 1, (1 << 128) - 1
        draws = np.random.default_rng(2026)
        sequences = [
            np.random.SeedSequence(entropy.tolist())
            for entropy in draws.integers(0, 2**63, size=(64, 2))
        ]
        words = np.stack([s.generate_state(4, np.uint64) for s in sequences])
        refs = [np.random.default_rng(s) for s in sequences]
        rows = np.arange(len(refs))
        pool = NodeStreamPool(len(refs))
        pool.seed_rows(rows, words)

        def joined(hi, lo):
            return [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]

        states = [g.bit_generator.state["state"] for g in refs]
        current = [state["state"] for state in states]
        incs = [state["inc"] for state in states]
        shi, slo, ihi, ilo = pcg64_bulk_init(words)
        assert joined(shi, slo) == current and joined(ihi, ilo) == incs
        carried, rotations = False, set()

        def replay():
            nonlocal carried
            for i, generator in enumerate(refs):
                target = generator.bit_generator.state["state"]["state"]
                for _ in range(64):
                    if current[i] == target:
                        break
                    product = (current[i] * mult) & mask128
                    carried |= (product & mask64) + (incs[i] & mask64) > mask64
                    current[i] = (product + incs[i]) & mask128
                    rotations.add(current[i] >> 122)
                assert current[i] == target

        for _ in range(10):
            assert np.array_equal(pool.doubles(rows), [g.random() for g in refs])
            k, count = int(draws.integers(1, 32)), int(draws.integers(1, 4))
            assert np.array_equal(
                pool.pow2_batch(rows, k, count),
                np.stack([g.integers(1 << k, 2 << k, size=count) for g in refs], 1),
            )
            per_row = draws.integers(0, 32, size=len(refs))
            assert np.array_equal(
                pool.pow2_batch(rows, per_row, count),
                np.stack(
                    [
                        g.integers(1 << int(k), 2 << int(k), size=count)
                        for g, k in zip(refs, per_row)
                    ],
                    1,
                ),
            )
            # Zero ranges, and ranges that reject about half their draws.
            ranges = draws.choice(
                [0, 6, (1 << 31) + 1, draws.integers(1, 2**32 - 1)], size=len(refs)
            ).astype(np.uint64)
            assert pool.bounded_u32(rows, ranges).tolist() == [
                int(g.integers(0, int(r) + 1)) for g, r in zip(refs, ranges)
            ]
            # A random subset leaves the rows' 32-bit buffers mixed.
            subset = np.flatnonzero(draws.random(len(refs)) < 0.5)
            assert pool.next_u32(subset).tolist() == [
                int(refs[i].integers(0, 2**32)) for i in subset
            ]
            replay()
        assert carried
        assert {0, 63} <= rotations


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
        assert (
            kernel.unsupported_reason(
                cjz_factory(), batch_jam_factory, SimulatorConfig(horizon=10)
            )
            is None
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

    def test_auto_runs_vector_protocols_on_lockstep(self):
        """An age-profile study against an oblivious adversary runs lockstep
        under ``auto`` and equals an explicit batched-study run and the
        reference kernel."""
        kwargs = dict(
            protocol_factory=make_factory(SlottedAloha, 0.2),
            adversary_factory=batch_jam_factory,
            horizon=80,
            trials=3,
            seed=5,
        )
        study = run_trials(backend="auto", **kwargs)
        assert all(r.backend == "lockstep" for r in study)
        for backend in ("batched-study", "reference"):
            other = run_trials(backend=backend, **kwargs)
            assert [r.summary for r in study] == [r.summary for r in other]
            assert [r.node_stats for r in study] == [r.node_stats for r in other]
            assert [r.prefix_successes for r in study] == [
                r.prefix_successes for r in other
            ]

    def test_auto_serves_adaptive_adversaries_via_lockstep(self):
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

    def test_auto_runs_small_sparse_studies_lockstep(self):
        # No rung reads the trial count or the arrival shape: a single
        # trial of a thin spread workload runs lockstep too, seed for seed
        # with the per-trial reference loop.
        study = self._sparse_study(trials=1)
        assert [r.backend for r in study] == ["lockstep"]
        reference = self._sparse_study(trials=1, backend="reference")
        assert [r.backend for r in reference] == ["reference"]
        assert study.results[0].summary == reference.results[0].summary

    def test_auto_runs_the_same_sparse_study_lockstep_from_two_trials(self):
        single = self._sparse_study(trials=1)
        double = self._sparse_study(trials=2)
        assert [r.backend for r in single] == ["lockstep"]
        assert [r.backend for r in double] == ["lockstep", "lockstep"]
        # Trial seeds do not depend on the trial count.
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

        # A single trial runs lockstep whatever its batch size.
        assert study(31).results[0].backend == "lockstep"
        assert study(32).results[0].backend == "lockstep"

    def test_explain_backend_selects_lockstep_for_a_sparse_study(self):
        runner = TrialRunner(
            cjz_factory(),
            lambda: ComposedAdversary(
                UniformRandomArrivals(10, (1, 60)), RandomFractionJamming(0.2)
            ),
            SimulatorConfig(horizon=120),
        )
        rows = {row["backend"]: row for row in runner.explain_backend()}
        assert rows["lockstep"]["status"] == "selected"
        assert rows["per-trial (reference)"]["status"] == "eligible"


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
        rows = {row["backend"]: row for row in runner.explain_backend()}
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
        rows = {row["backend"]: row for row in runner.explain_backend()}
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


class TestTrialStops:
    def _spy(self, monkeypatch):
        """Record the slots the stop step runs on (with the waiting flag it
        leaves) and the slots the loop visits (one driver call each)."""
        import repro.sim.backends.lockstep as lockstep_module

        checks, visited = [], []
        real_stop = lockstep_module._LockstepRun._stop_trials

        def stop(run, slot):
            stopped = real_stop(run, slot)
            checks.append((slot, run._waiting))
            return stopped

        real_build = lockstep_module.build_lockstep_driver

        def build(*args):
            driver = real_build(*args)
            real_actions = driver.actions

            def counted(slot, trial_active):
                visited.append(slot)
                return real_actions(slot, trial_active)

            driver.actions = counted
            return driver

        monkeypatch.setattr(lockstep_module._LockstepRun, "_stop_trials", stop)
        monkeypatch.setattr(lockstep_module, "build_lockstep_driver", build)
        return checks, visited

    def test_stop_step_runs_only_where_a_trial_can_stop(self, monkeypatch):
        """A trial newly drains only in a slot with a success, so the stop
        step skips the visited slots without one."""
        checks, visited = self._spy(monkeypatch)
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                BatchArrivals(6), RandomFractionJamming(0.2)
            ),
            horizon=2048,
            trials=3,
            seed=11,
            stop_when_drained=True,
        )
        study = run_trials(backend="lockstep", **kwargs)
        assert 0 < len(checks) < len(visited)
        successes = {
            slot
            for result in study
            for slot in (np.flatnonzero(np.diff(result.prefix_successes)) + 1)
        }
        assert {slot for slot, _ in checks} <= successes
        reference = run_trials(backend="reference", **kwargs)
        assert [r.summary for r in study] == [r.summary for r in reference]

    def test_drained_trial_waits_for_its_arrivals_to_run_out(self, monkeypatch):
        """Both nodes succeed long before the strategy reports itself
        exhausted; the drained trial waits, checked every slot, and stops
        at the reference's slot."""

        class LateExhausted(ScheduledArrivals):
            def exhausted(self, slot):
                return slot >= 300

        checks, _ = self._spy(monkeypatch)
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                LateExhausted({5: 2}), RandomFractionJamming(0.0)
            ),
            horizon=600,
            trials=2,
            seed=3,
            stop_when_drained=True,
        )
        study = run_trials(backend="lockstep", **kwargs)
        reference = run_trials(backend="reference", **kwargs)
        assert [r.summary for r in study] == [r.summary for r in reference]
        assert [r.summary.total_slots for r in study] == [300, 300]
        assert any(waiting for _, waiting in checks)
        assert checks[-1] == (300, False)


class TestReadOnlySlotArguments:
    def test_observe_cannot_write_the_shared_winner_ids(self, monkeypatch):
        """Slots without a success share one read-only ``winner_ids``
        array, so a driver that writes into it fails instead of silently
        changing what later slots receive."""
        import repro.sim.backends.lockstep as lockstep_module

        real_build = lockstep_module.build_lockstep_driver
        writes = []

        def build(*args):
            driver = real_build(*args)
            real_observe = driver.observe

            def observe(slot, success, winner_ids, trial_active):
                if not success.any():
                    writes.append(slot)
                    winner_ids[0] = 0
                return real_observe(slot, success, winner_ids, trial_active)

            driver.observe = observe
            return driver

        monkeypatch.setattr(lockstep_module, "build_lockstep_driver", build)
        with pytest.raises(ValueError, match="read-only"):
            run_trials(
                backend="lockstep",
                protocol_factory=cjz_factory(),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(6), RandomFractionJamming(0.1)
                ),
                horizon=200,
                trials=2,
                seed=3,
            )
        assert writes


class TestBulkArrivals:
    """A driver that knows the whole arrival schedule lets the kernel arrive
    every scheduled node in one ``arrive`` call; adaptive arrivals keep one
    call per arrival slot.  Either way the study equals the reference."""

    def test_row_ranges_match_the_loop(self):
        from repro.sim.backends.lockstep import _row_ranges

        rng = np.random.default_rng(5)
        for size in (0, 1, 7, 40):
            starts = rng.integers(0, 1000, size)
            counts = rng.integers(0, 5, size)  # zero counts included
            loop = [np.arange(s, s + c) for s, c in zip(starts, counts)]
            got = _row_ranges(starts, counts)
            assert got.dtype == np.int64
            assert got.tolist() == (np.concatenate(loop).tolist() if loop else [])

    def _spied_study(self, monkeypatch, adversary, **extra):
        import repro.sim.backends.lockstep as lockstep_module

        calls, drivers = [], []
        real_arrive = CJZLockstepProgram.arrive
        real_build = lockstep_module.build_lockstep_driver

        def arrive(program, rows, slot):
            calls.append((rows.copy(), np.copy(slot)))
            return real_arrive(program, rows, slot)

        def build(*args):
            driver = real_build(*args)
            drivers.append(type(driver).__name__)
            return driver

        monkeypatch.setattr(CJZLockstepProgram, "arrive", arrive)
        monkeypatch.setattr(lockstep_module, "build_lockstep_driver", build)
        kwargs = {
            "protocol_factory": cjz_factory(),
            "adversary_factory": adversary,
            "horizon": 300,
            "trials": 4,
            "seed": 13,
            **extra,
        }
        study = run_trials(backend="lockstep", **kwargs)
        for a, b in zip(run_trials(backend="reference", **kwargs), study):
            assert a.summary == b.summary
            assert a.node_stats == b.node_stats
        return calls, drivers, study

    @pytest.mark.parametrize(
        "jamming",
        [lambda: RandomFractionJamming(0.2), lambda: ReactiveJamming(0.2, burst=3)],
        ids=["precompiled", "reactive"],
    )
    def test_schedule_backed_runs_arrive_once(self, monkeypatch, jamming):
        calls, drivers, study = self._spied_study(
            monkeypatch,
            lambda: ComposedAdversary(
                UniformRandomArrivals(12, (1, 150)), jamming()
            ),
        )
        assert drivers == ["ScheduledLockstepDriver"]
        assert len(calls) == 1
        rows, slots = calls[0]
        assert slots.dtype == np.int64 and slots.shape == rows.shape
        capacity = max(result.total_arrivals for result in study)
        expected = {
            trial * capacity + node: stats.arrival_slot
            for trial, result in enumerate(study)
            for node, stats in result.node_stats.items()
        }
        assert len(rows) == len(expected)
        assert dict(zip(rows.tolist(), slots.tolist())) == expected
        assert len(np.unique(slots)) > len(study)  # spread arrivals

    def test_adaptive_arrivals_arrive_once_per_arrival_slot(self, monkeypatch):
        calls, drivers, study = self._spied_study(
            monkeypatch,
            lambda: AdaptiveSuccessChaser(
                jam_fraction=0.1,
                arrival_budget_per_success=2,
                total_arrival_budget=24,
                jam_burst=2,
                seed_arrivals=3,
            ),
        )
        assert drivers == ["AdaptiveChaserLockstepDriver"]
        arrival_slots = sorted(
            {
                stats.arrival_slot
                for result in study
                for stats in result.node_stats.values()
            }
        )
        assert len(arrival_slots) > 1
        assert [int(slot) for _, slot in calls] == arrival_slots

    def test_stopped_trials_skip_their_remaining_schedule(self, monkeypatch):
        # The strategy reports itself exhausted before its second batch, so
        # a trial that drains the first batch in time stops, and the driver
        # zeroes that trial's second batch while the other trials get theirs.
        # No row of a stopped trial may be stepped after its stop.
        class EarlyExhausted(ScheduledArrivals):
            def exhausted(self, slot):
                return slot < 12

        stepped = []
        real_step = CJZLockstepProgram.step

        def step(program, rows, slot):
            stepped.append((slot, rows.copy()))
            return real_step(program, rows, slot)

        monkeypatch.setattr(CJZLockstepProgram, "step", step)
        _, _, study = self._spied_study(
            monkeypatch,
            lambda: ComposedAdversary(
                EarlyExhausted({1: 2, 12: 3}), RandomFractionJamming(0.1)
            ),
            trials=6,
            seed=4,
            stop_when_drained=True,
        )
        arrived = [result.total_arrivals for result in study]
        assert sorted(arrived) == [2, 2, 2, 5, 5, 5]
        stops = np.array([result.summary.total_slots for result in study])
        for slot, rows in stepped:
            assert (slot <= stops[rows // 5]).all()  # capacity: 2 + 3 nodes


class TestCJZProgramEvents:
    """The CJZ program's backoff work is event-driven and draws the plans of
    all stages entered in one slot in one round per plan index."""

    def _bound_program(self, count, horizon):
        sequences = [
            np.random.SeedSequence(17, spawn_key=(i, 0)) for i in range(count)
        ]
        pool = NodeStreamPool(count)
        pool.seed_rows(
            np.arange(count),
            np.stack([s.generate_state(4, np.uint64) for s in sequences]),
        )
        program = CJZLockstepProgram(AlgorithmParameters.from_g())
        program.bind(1, count, pool, horizon)
        return program, [np.random.default_rng(s) for s in sequences]

    def test_stages_entered_in_one_slot_draw_in_one_round(self, monkeypatch):
        # Phase-1 nodes anchored at slots 18, 14 and 6 enter backoff stages
        # 1, 2 and 3 together in slot 20 (stage k starts at local index
        # 2**k, i.e. slot anchor + 2 * (2**k - 1)); with the default budget
        # each of those stages sends once.  No feedback arrives, so the
        # nodes stay in Phase 1.
        arrivals = np.array([18, 14, 6])
        program, _ = self._bound_program(3, 64)
        assert [program._stage_counts[k] for k in (1, 2, 3)] == [1, 1, 1]
        calls = []
        real = NodeStreamPool.pow2_batch

        def spy(pool, rows, k, count):
            calls.append(np.broadcast_to(k, (len(rows),)).tolist())
            return real(pool, rows, k, count)

        monkeypatch.setattr(NodeStreamPool, "pow2_batch", spy)
        for slot in range(1, 21):
            arriving = np.flatnonzero(arrivals == slot)
            if arriving.size:
                program.arrive(arriving, slot)
            calls.clear()
            program.step(np.flatnonzero(arrivals <= slot), slot)
        assert calls == [[1, 2, 3]]

    def test_lone_phase1_node_works_only_at_its_events(self, monkeypatch):
        """Backoff work runs only in the slots where the per-node reference
        enters a stage or sends, and the sends match it."""
        horizon = 400
        program, (rng,) = self._bound_program(1, horizon)
        node = ChenJiangZhengProtocol(AlgorithmParameters.from_g())
        node.on_arrival(1, rng)
        worked, current = [], [0]
        real = CJZLockstepProgram._step_backoff

        def spy(self, *args):
            worked.append(current[0])
            return real(self, *args)

        monkeypatch.setattr(CJZLockstepProgram, "_step_backoff", spy)
        row = np.array([0])
        program.arrive(row, 1)
        events, sends = [], []
        for slot in range(1, horizon + 1):
            current[0] = slot
            stage = node._phase1_backoff.current_stage
            sent = node.wants_to_broadcast(slot)
            if sent or node._phase1_backoff.current_stage != stage:
                events.append(slot)
            sends.append(sent)
            assert bool(program.step(row, slot)[0]) == sent
        assert worked == events
        # Stages 0-7 and at least eight sends, out of 400 slots.
        assert sum(sends) >= 8 and len(worked) < horizon // 16

    # Phase 3: rows read their doubles from natively drawn windows.  Each
    # test below spies on the branch it names and checks the results
    # against the reference kernel.

    @staticmethod
    def _spy_fills(monkeypatch):
        """Every window fill as ``(origin, skip, rows, windows)``."""
        fills = []
        real_fill = CJZLockstepProgram._fill

        def fill(program, rows, windows, origin, skip):
            fills.append((origin, skip, rows.tolist(), windows.tolist()))
            return real_fill(program, rows, windows, origin, skip)

        monkeypatch.setattr(CJZLockstepProgram, "_fill", fill)
        return fills

    @staticmethod
    def _spy_replays(monkeypatch):
        """The row count of every ``NodeStreamPool.doubles`` call."""
        assert lockstep_streams_ok()  # its check replays before the spy
        replays = []
        real_doubles = NodeStreamPool.doubles

        def doubles(pool, rows):
            replays.append(rows.size)
            return real_doubles(pool, rows)

        monkeypatch.setattr(NodeStreamPool, "doubles", doubles)
        return replays

    @staticmethod
    def _batch_kwargs(count, seed, horizon=300, trials=3, jamming=0.25):
        return dict(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                BatchArrivals(count), RandomFractionJamming(jamming)
            ),
            horizon=horizon,
            trials=trials,
            seed=seed,
        )

    def test_rows_holding_windows_never_replay(self, monkeypatch):
        fills = self._spy_fills(monkeypatch)
        replays = self._spy_replays(monkeypatch)
        kwargs = self._batch_kwargs(8, seed=3)
        study = run_trials(backend="lockstep", **kwargs)
        assert fills and not replays
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_window_refill(self, monkeypatch):
        """Four-slot windows: a row still in Phase 3 at its window's end
        draws the next window there, and rows whose windows end in one
        slot after different numbers of draws refill in one call each."""
        from repro.protocols import base

        monkeypatch.setattr(base, "_MIN_DRAW_WINDOW", 4)
        fills = self._spy_fills(monkeypatch)
        kwargs = self._batch_kwargs(6, seed=5)
        study = run_trials(backend="lockstep", **kwargs)
        refills = [(origin, skip) for origin, skip, _, _ in fills if skip]
        assert refills and all(skip % 4 == 0 for _, skip in refills)
        assert max(skip for _, skip in refills) >= 8  # refilled twice
        skips_by_origin = {}
        for origin, skip in refills:
            skips_by_origin.setdefault(origin, set()).add(skip)
        assert any(len(skips) > 1 for skips in skips_by_origin.values())
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_phase3_entry_with_a_buffered_half_pending(self, monkeypatch):
        """Rows whose backoff draws left a 32-bit half buffered enter
        Phase 3 with it pending; their windows start at the next whole
        word, as the reference's ``random()`` calls do."""
        pending = []
        real_enter = CJZLockstepProgram._enter_batch

        def enter(program, rows, slot):
            pending.extend(program._pool._has32[rows].tolist())
            return real_enter(program, rows, slot)

        monkeypatch.setattr(CJZLockstepProgram, "_enter_batch", enter)
        fills = self._spy_fills(monkeypatch)
        kwargs = self._batch_kwargs(6, seed=3)
        study = run_trials(backend="lockstep", **kwargs)
        assert any(pending) and not all(pending)
        entered = sum(len(rows) for _, skip, rows, _ in fills if not skip)
        assert entered == len(pending)  # every entrant took a window
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_full_pool_rows_replay_and_freed_windows_are_reused(
        self, monkeypatch
    ):
        """A pool of one window: the rows entering beside its holder
        replay, and the window passes to a later entrant once its holder
        succeeds."""
        from repro.protocols import base
        from repro.sim.backends import studysupport

        monkeypatch.setattr(
            studysupport, "DRAW_BLOCK_ELEMENTS", 2 * base._MIN_DRAW_WINDOW
        )
        fills = self._spy_fills(monkeypatch)
        replays = self._spy_replays(monkeypatch)
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                ScheduledArrivals({1: 5, 100: 5}), RandomFractionJamming(0.0)
            ),
            horizon=400,
            trials=2,
            seed=1,
        )
        study = run_trials(backend="lockstep", **kwargs)
        entries = [(rows, windows) for _, skip, rows, windows in fills if not skip]
        assert all(windows == [0] for _, windows in entries)
        assert len({rows[0] for rows, _ in entries}) > 1  # window 0 reused
        assert replays
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_capacity_growth_while_windows_are_held(self, monkeypatch):
        """Adaptive arrivals grow the columns while Phase-3 rows hold
        windows; each keeps reading its own window."""
        held = []
        real_grow = CJZLockstepProgram.grow

        def grow(program, trials, old, new):
            held.append(program._free.size - program._free_count)
            return real_grow(program, trials, old, new)

        monkeypatch.setattr(CJZLockstepProgram, "grow", grow)
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: AdaptiveSuccessChaser(
                jam_fraction=0.1,
                arrival_budget_per_success=3,
                total_arrival_budget=60,
                jam_burst=2,
                seed_arrivals=10,
            ),
            horizon=300,
            trials=2,
            seed=0,
        )
        study = run_trials(backend="lockstep", **kwargs)
        assert held and all(count > 0 for count in held)
        _assert_same_results(study, run_trials(backend="reference", **kwargs))


def _assert_same_results(study, reference):
    assert len(study) == len(reference)
    for a, b in zip(reference, study):
        assert a.summary == b.summary
        assert a.node_stats == b.node_stats
        assert a.prefix_successes == b.prefix_successes
        assert a.prefix_jammed == b.prefix_jammed


def _backoff_spec(horizon, seed, scale=1.0, **extra):
    """``scale``/i senders (``probability-backoff``): a node sends ever
    more rarely as it ages."""
    from repro.spec import StudySpec

    return StudySpec.from_dict(
        {
            "protocol": {"kind": "probability-backoff", "params": {"scale": scale}},
            "adversary": {
                "kind": "composed",
                "arrivals": {"kind": "batch", "params": {"count": 6}},
                "jamming": {"kind": "random-fraction", "params": {"fraction": 0.2}},
            },
            "horizon": horizon,
            "trials": 3,
            "seed": seed,
            **extra,
        }
    )


class TestAgeProfileEvents:
    """The age-profile program draws each row's sends when it arrives, and
    the loop jumps the quiet slots between them.  Each test spies on the
    branch it names and checks the results against the reference kernel."""

    @staticmethod
    def _spy_driver(monkeypatch):
        """The visited slots (one ``actions`` call each) and every
        ``skip_idle`` call as ``(slot, until, resume, burst pending)``."""
        from repro.adversary.columnar import ScheduledLockstepDriver

        visited, skips = [], []
        real_actions = ScheduledLockstepDriver.actions
        real_skip = ScheduledLockstepDriver.skip_idle

        def actions(driver, slot, trial_active):
            visited.append(slot)
            return real_actions(driver, slot, trial_active)

        def skip_idle(driver, slot, trial_active, jam_m, until=None):
            resume = real_skip(driver, slot, trial_active, jam_m, until)
            pending = bool(np.count_nonzero(driver._pending[trial_active]))
            skips.append((slot, until, resume, pending))
            return resume

        monkeypatch.setattr(ScheduledLockstepDriver, "actions", actions)
        monkeypatch.setattr(ScheduledLockstepDriver, "skip_idle", skip_idle)
        return visited, skips

    def test_native_draws_equal_the_replayed_stream(self):
        pool = NodeStreamPool(3)
        sequences = [np.random.SeedSequence(7, spawn_key=(i,)) for i in range(3)]
        pool.seed_rows(
            np.arange(3), np.stack([s.generate_state(4, np.uint64) for s in sequences])
        )
        rows = np.array([2, 0])
        head, tail = np.empty((2, 5)), np.empty((2, 4))
        pool.native_doubles(rows, head)
        pool.native_doubles(rows, tail, skip=5)
        for i, row in enumerate(rows.tolist()):
            expected = np.random.default_rng(sequences[row]).random(9)
            assert np.array_equal(np.concatenate((head[i], tail[i])), expected)
        # The rows did not move: the replay still starts at the first double.
        assert np.array_equal(pool.doubles(rows), head[:, 0])

    def test_send_after_a_long_quiet_gap(self, monkeypatch):
        visited, skips = self._spy_driver(monkeypatch)
        kwargs = dict(
            protocol_factory=make_factory(ProbabilityBackoff, 0.3),
            adversary_factory=batch_jam_factory,
            horizon=3000,
            trials=3,
            seed=4,
        )
        study = run_trials(backend="lockstep", **kwargs)
        quiet = [resume - slot for slot, until, resume, _ in skips if until]
        assert max(quiet) >= 200
        assert len(visited) < 3000 // 4
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_window_refill(self, monkeypatch):
        """A 64-element draw budget and 16-slot windows: the batch draws in
        chunks of four rows, and rows that outlive a window refill at its
        end."""
        from repro.protocols import base
        from repro.sim.backends import studysupport

        monkeypatch.setattr(studysupport, "DRAW_BLOCK_ELEMENTS", 64)
        monkeypatch.setattr(base, "_MIN_DRAW_WINDOW", 16)
        draws, blocks = [], []
        real_draw = AgeProfileLockstepProgram._draw
        real_native = NodeStreamPool.native_doubles

        def draw(program, rows, offset):
            draws.append((offset, rows.size))
            return real_draw(program, rows, offset)

        def native(pool, rows, out, skip=0):
            blocks.append(out.size)
            return real_native(pool, rows, out, skip)

        monkeypatch.setattr(AgeProfileLockstepProgram, "_draw", draw)
        monkeypatch.setattr(NodeStreamPool, "native_doubles", native)
        kwargs = dict(
            protocol_factory=make_factory(ProbabilityBackoff, 1.0),
            adversary_factory=batch_jam_factory,
            horizon=600,
            trials=3,
            seed=2,
        )
        study = run_trials(backend="lockstep", **kwargs)
        assert draws[0] == (0, 18)
        assert any(offset >= 16 for offset, _ in draws)
        assert max(blocks) <= 64 and len(blocks) > len(draws)
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_pending_burst_blocks_the_quiet_skip(self, monkeypatch):
        visited, skips = self._spy_driver(monkeypatch)
        kwargs = dict(
            protocol_factory=make_factory(ProbabilityBackoff, 1.0),
            adversary_factory=lambda: ComposedAdversary(
                BatchArrivals(6), ReactiveJamming(0.5, burst=40)
            ),
            horizon=1500,
            trials=3,
            seed=6,
        )
        study = run_trials(backend="lockstep", **kwargs)
        assert any(
            pending and until and resume == slot
            for slot, until, resume, pending in skips
        )
        assert any(until and resume > slot for slot, until, resume, _ in skips)
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_member_horizon_inside_a_quiet_stretch(self, monkeypatch):
        """A fused run of horizons 400 and 3000: a quiet skip stops at 400,
        where the short member's trials end, and both members equal the
        reference."""
        from repro.spec import StudyPlan

        visited, skips = self._spy_driver(monkeypatch)
        specs = [_backoff_spec(400, 1, 0.3), _backoff_spec(3000, 2, 0.3)]
        fused = StudyPlan(specs).run(fuse=True)
        assert any(
            until == 400 and resume == 400 and slot < 400
            for slot, until, resume, _ in skips
        )
        assert [r.summary.total_slots for r in fused[0].study] == [400] * 3
        reference = StudyPlan(
            [spec.with_execution(backend="reference") for spec in specs]
        ).run(fuse=False)
        for point, expected in zip(fused, reference):
            assert {r.backend for r in point.study} == {"lockstep"}
            _assert_same_results(point.study, expected.study)

    def test_waiting_drained_trial_blocks_the_quiet_skip(self, monkeypatch):
        """A drained trial waits for its arrivals to run out at slot 300,
        while another trial's live rows have no send due: the loop still
        steps every slot, and the waiting trial stops where the
        reference's does."""
        import repro.sim.backends.lockstep as lockstep_module

        class LateExhausted(ScheduledArrivals):
            def exhausted(self, slot):
                return slot >= 300

        checks = []  # (slot, waiting, live rows quiet in the next slot)
        real_stop = lockstep_module._LockstepRun._stop_trials

        def stop(run, slot):
            stopped = real_stop(run, slot)
            rows = run._active
            quiet = bool(rows.size) and (
                run._program.next_event(rows, slot + 1) > slot + 1
            )
            checks.append((slot, run._waiting, quiet))
            return stopped

        monkeypatch.setattr(lockstep_module._LockstepRun, "_stop_trials", stop)
        kwargs = dict(
            protocol_factory=make_factory(ProbabilityBackoff, 1.0),
            adversary_factory=lambda: ComposedAdversary(
                LateExhausted({5: 3}), RandomFractionJamming(0.0)
            ),
            horizon=600,
            trials=4,
            seed=3,
            stop_when_drained=True,
        )
        study = run_trials(backend="lockstep", **kwargs)
        checked = {slot for slot, _, _ in checks}
        held = [slot for slot, waiting, quiet in checks if waiting and quiet]
        assert held and all(slot + 1 in checked for slot in held)
        _assert_same_results(study, run_trials(backend="reference", **kwargs))
        assert 300 in [r.summary.total_slots for r in study]

    def test_capacity_growth_remaps_the_event_pointers(self, monkeypatch):
        """Adaptive arrivals grow the columns after earlier rows drew their
        windows; their events keep pointing at their own sends."""
        grown = []
        real_grow = AgeProfileLockstepProgram.grow

        def grow(program, trials, old, new):
            grown.append(program._used)
            return real_grow(program, trials, old, new)

        monkeypatch.setattr(AgeProfileLockstepProgram, "grow", grow)
        kwargs = dict(
            protocol_factory=make_factory(SlottedAloha, 0.2),
            adversary_factory=lambda: AdaptiveSuccessChaser(
                jam_fraction=0.1,
                arrival_budget_per_success=3,
                total_arrival_budget=60,
                jam_burst=2,
                seed_arrivals=10,
            ),
            horizon=300,
            trials=2,
            seed=9,
        )
        study = run_trials(backend="lockstep", **kwargs)
        assert grown and all(used > 0 for used in grown)
        _assert_same_results(study, run_trials(backend="reference", **kwargs))

    def test_composite_members_draw_through_the_offset_pool(self, monkeypatch):
        """Mixed-parameter members keep their own programs, which seed
        their native draws through their shifted view of the shared pool."""
        from repro.sim.backends.fused import _OffsetStreamPool, run_fused_group
        from repro.spec import StudyPlan

        shifts = []
        real_native = _OffsetStreamPool.native_doubles

        def native(adapter, rows, out, skip=0):
            shifts.append(adapter._shift)
            return real_native(adapter, rows, out, skip)

        monkeypatch.setattr(_OffsetStreamPool, "native_doubles", native)
        specs = [
            _backoff_spec(500, seed, scale)
            for seed, scale in ((1, 1.0), (2, 2.0), (3, 0.5))
        ]
        studies = run_fused_group(specs)
        assert len(set(shifts)) == len(specs)  # one trial block each
        reference = StudyPlan(
            [spec.with_execution(backend="reference") for spec in specs]
        ).run(fuse=False)
        for study, expected in zip(studies, reference):
            _assert_same_results(study, expected.study)
