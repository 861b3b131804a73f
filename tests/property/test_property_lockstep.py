"""Property tests: the lockstep study kernel is seed-for-seed identical to reference.

For every protocol implementing the columnar lockstep program (the paper's
CJZ algorithm, its global-clock ablation, the two-channel no-jamming
variant, windowed binary-exponential, sawtooth and polynomial backoff, and
the age-profile family: slotted ALOHA, probability backoff and the
fixed-probability sequences), any workload — batch / spread / bursty
arrivals under no / random / reactive jamming, plus the fully adaptive
success chaser — and any seed, a ``backend="lockstep"`` study must reproduce
the serial reference study exactly: identical summaries, prefix arrays,
per-node statistics and early-stop slots, and the same holds for
``workers=4`` shard merges.  Workloads with long idle stretches pin the
kernel's idle-slot skip the same way, and targeted CJZ workloads pin each
path of its program's stage-entry draws.
"""

import contextlib
import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    AdaptiveSuccessChaser,
    BatchArrivals,
    BurstyArrivals,
    ComposedAdversary,
    FrontLoadedJamming,
    NoJamming,
    PoissonArrivals,
    RandomFractionJamming,
    ReactiveJamming,
    ScheduledArrivals,
    UniformRandomArrivals,
)
from repro.core import AlgorithmParameters, cjz_factory
from repro.core.protocol import CJZLockstepProgram
from repro.functions import constant_g
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
from repro.protocols.base import LOCKSTEP_SENTINEL
from repro.sim import run_trials

#: Protocols whose programs also lower to the compiled tier (the compiled
#: property suite imports this list).
lockstep_factories = st.sampled_from(
    [
        ("cjz", cjz_factory()),
        ("cjz-global-clock", cjz_factory(global_clock=True)),
        ("two-channel", make_factory(TwoChannelNoJamming)),
        ("wbeb", make_factory(WindowedBinaryExponentialBackoff, 2)),
        ("sawtooth", make_factory(SawtoothBackoff, 4)),
        ("polynomial", make_factory(PolynomialBackoff, 2.0, 2)),
    ]
)

#: The vector-eligible protocols, served by the age-profile program.
age_profile_factories = st.sampled_from(
    [
        ("aloha", make_factory(SlottedAloha, 0.15)),
        ("probability-backoff", make_factory(ProbabilityBackoff, 1.5)),
        ("log-uniform-fixed", make_factory(LogUniformFixedProtocol, 2.0)),
        (
            "fixed-probability",
            make_factory(
                FixedProbabilityProtocol, lambda i: min(1.0, 0.9 / math.sqrt(i))
            ),
        ),
    ]
)

all_program_factories = st.one_of(lockstep_factories, age_profile_factories)


@st.composite
def adversary_builders(draw):
    """A named adversary factory covering the arrival × jamming grid."""
    count = draw(st.integers(min_value=1, max_value=10))
    arrivals_kind = draw(st.sampled_from(["batch", "spread", "bursty"]))
    jamming_kind = draw(st.sampled_from(["none", "random", "reactive"]))
    adaptive_chaser = draw(st.booleans())
    if adaptive_chaser:
        budget = draw(st.one_of(st.none(), st.integers(8, 24)))
        return (
            "chaser",
            lambda: AdaptiveSuccessChaser(
                jam_fraction=0.2,
                arrival_budget_per_success=2,
                total_arrival_budget=budget,
                jam_burst=4,
                seed_arrivals=2,
            ),
        )

    def build():
        if arrivals_kind == "batch":
            arrivals = BatchArrivals(count)
        elif arrivals_kind == "spread":
            arrivals = UniformRandomArrivals(count + 4, (1, 80))
        else:
            arrivals = BurstyArrivals(count, 30)
        if jamming_kind == "none":
            jamming = NoJamming()
        elif jamming_kind == "random":
            jamming = RandomFractionJamming(0.25)
        else:
            jamming = ReactiveJamming(0.2, burst=5)
        return ComposedAdversary(arrivals, jamming)

    return (f"{arrivals_kind}+{jamming_kind}", build)


def assert_studies_identical(reference_study, lockstep_study):
    assert len(reference_study) == len(lockstep_study)
    for reference, lockstep in zip(reference_study, lockstep_study):
        assert reference.summary == lockstep.summary
        assert reference.horizon == lockstep.horizon
        assert reference.prefix_active == lockstep.prefix_active
        assert reference.prefix_arrivals == lockstep.prefix_arrivals
        assert reference.prefix_jammed == lockstep.prefix_jammed
        assert reference.prefix_successes == lockstep.prefix_successes
        assert reference.node_stats == lockstep.node_stats


class TestLockstepEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        named_factory=all_program_factories,
        named_adversary=adversary_builders(),
        horizon=st.integers(min_value=60, max_value=160),
        trials=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_studies_identical(
        self, named_factory, named_adversary, horizon, trials, seed
    ):
        _, factory = named_factory
        _, adversary_factory = named_adversary

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=adversary_factory,
                horizon=horizon,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        reference, lockstep = study("reference"), study("lockstep")
        assert all(r.backend == "reference" for r in reference)
        assert all(r.backend == "lockstep" for r in lockstep)
        assert_studies_identical(reference, lockstep)

    @settings(max_examples=16, deadline=None)
    @given(
        named_factory=all_program_factories,
        named_adversary=adversary_builders(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stop_when_drained_identical(
        self, named_factory, named_adversary, seed
    ):
        _, factory = named_factory
        _, adversary_factory = named_adversary

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=adversary_factory,
                horizon=300,
                trials=3,
                seed=seed,
                backend=backend,
                stop_when_drained=True,
            )

        assert_studies_identical(study("reference"), study("lockstep"))

    @settings(max_examples=8, deadline=None)
    @given(
        named_adversary=adversary_builders(),
        seed=st.integers(min_value=0, max_value=2**16),
        trials=st.integers(min_value=4, max_value=7),
    )
    def test_workers_shard_merge_identical(self, named_adversary, seed, trials):
        """workers=4 lockstep shards merge back seed-for-seed with serial."""
        _, adversary_factory = named_adversary

        def study(workers, backend):
            return run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=adversary_factory,
                horizon=120,
                trials=trials,
                seed=seed,
                backend=backend,
                workers=workers,
            )

        serial_reference = study(1, "reference")
        parallel_lockstep = study(4, "lockstep")
        assert parallel_lockstep.effective_workers == 4
        assert_studies_identical(serial_reference, parallel_lockstep)

    @settings(max_examples=8, deadline=None)
    @given(
        named_factory=age_profile_factories,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_age_profile_capacity_growth_identical(self, named_factory, seed):
        """Adaptive arrivals past the initial capacity grow the arrival
        column mid-run without perturbing any node's stream."""
        _, factory = named_factory

        def chaser():
            return AdaptiveSuccessChaser(
                jam_fraction=0.1,
                arrival_budget_per_success=3,
                total_arrival_budget=60,
                jam_burst=2,
                seed_arrivals=20,
            )

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=chaser,
                horizon=150,
                trials=2,
                seed=seed,
                backend=backend,
            )

        lockstep = study("lockstep")
        assert max(r.total_arrivals for r in lockstep) > 16
        assert_studies_identical(study("reference"), lockstep)

    @settings(max_examples=8, deadline=None)
    @given(
        named_factory=all_program_factories,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_auto_selects_lockstep_for_feedback_protocols(
        self, named_factory, seed
    ):
        """``auto`` escalates every program protocol to the lockstep tier
        when the batched study kernel cannot take it (adaptive jamming)."""
        _, factory = named_factory

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(12), ReactiveJamming(0.3, burst=3)
                ),
                horizon=140,
                trials=3,
                seed=seed,
                backend=backend,
            )

        auto = study("auto")
        # The compiled tier serves the same rung when it can run (numba or
        # the pure-python interpreter); both names are the lockstep tier.
        assert all(r.backend in ("lockstep", "lockstep-jit") for r in auto)
        assert_studies_identical(study("reference"), auto)


def per_slot(column):
    """Slot-by-slot values (slots ``1..horizon``) of a prefix column."""
    return np.diff(np.asarray(column))


JAMMERS = {
    "none": NoJamming,
    "random": lambda: RandomFractionJamming(0.25),
    "reactive": lambda: ReactiveJamming(0.2, burst=5),
}


class TestIdleSkipEquivalence:
    """Idle stretches — no live node in any running trial — are jumped by
    the adversary driver; the jump must be invisible in every output."""

    @settings(max_examples=16, deadline=None)
    @given(
        named_factory=all_program_factories,
        jamming=st.sampled_from(sorted(JAMMERS)),
        first=st.tuples(st.integers(2, 40), st.integers(1, 6)),
        second=st.integers(1, 6),
        gap=st.integers(250, 400),
        trials=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_clusters_across_a_long_idle_gap_identical(
        self, named_factory, jamming, first, second, gap, trials, seed
    ):
        _, factory = named_factory
        start, count = first
        later = start + gap

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ComposedAdversary(
                    ScheduledArrivals({start: count, later: second}),
                    JAMMERS[jamming](),
                ),
                horizon=later + 150,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        lockstep = study("lockstep")
        # The stretch before the first cluster is idle in every trial.
        assert all(
            not per_slot(r.counters.active)[: start - 1].any() for r in lockstep
        )
        assert_studies_identical(study("reference"), lockstep)

    @settings(max_examples=12, deadline=None)
    @given(
        named_factory=all_program_factories,
        count=st.integers(1, 4),
        trials=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_burst_pending_after_the_last_node_leaves_identical(
        self, named_factory, count, trials, seed
    ):
        """A success just before the system empties leaves a reactive burst
        pending; the skip must wait until that burst is spent."""
        _, factory = named_factory

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ComposedAdversary(
                    ScheduledArrivals({5: count, 420: count}),
                    ReactiveJamming(0.5, burst=30),
                ),
                horizon=560,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        lockstep = study("lockstep")
        # Some slot is jammed while no trial has a live node in it.
        idle = np.all([per_slot(r.counters.active) == 0 for r in lockstep], axis=0)
        jammed = np.any([per_slot(r.counters.jammed) > 0 for r in lockstep], axis=0)
        assume((idle & jammed).any())
        assert_studies_identical(study("reference"), lockstep)

    @settings(max_examples=12, deadline=None)
    @given(
        named_factory=all_program_factories,
        arrivals=st.sampled_from(["poisson", "uniform"]),
        jamming=st.sampled_from(sorted(JAMMERS)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stop_slot_after_the_last_arrival_identical(
        self, named_factory, arrivals, jamming, seed
    ):
        """Under stop_when_drained a drained trial stops at the first slot
        its arrivals are exhausted — for Poisson ``last_slot`` and
        uniform-random windows often well after its last arrival."""
        _, factory = named_factory

        def build():
            if arrivals == "poisson":
                strategy = PoissonArrivals(0.03, last_slot=150)
            else:
                strategy = UniformRandomArrivals(3, (1, 150))
            return ComposedAdversary(strategy, JAMMERS[jamming]())

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=build,
                horizon=400,
                trials=3,
                seed=seed,
                backend=backend,
                stop_when_drained=True,
            )

        reference, lockstep = study("reference"), study("lockstep")
        assert [r.horizon for r in lockstep] == [r.horizon for r in reference]
        assert_studies_identical(reference, lockstep)

    @settings(max_examples=12, deadline=None)
    @given(
        named_factory=all_program_factories,
        jamming=st.sampled_from(["random", "reactive"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stopped_trial_beside_idle_trials_identical(
        self, named_factory, jamming, seed
    ):
        """One trial drains and stops while the others, which never get a
        node, idle on: the jump runs with a stopped trial in the study."""
        _, factory = named_factory

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ComposedAdversary(
                    PoissonArrivals(0.05, last_slot=20), JAMMERS[jamming]()
                ),
                horizon=360,
                trials=4,
                seed=seed,
                backend=backend,
                stop_when_drained=True,
            )

        lockstep = study("lockstep")
        assume(any(r.horizon < 360 for r in lockstep))
        assume(any(r.total_arrivals == 0 for r in lockstep))
        assert_studies_identical(study("reference"), lockstep)


#: A CJZ budget large enough that small stages draw ``2**k`` send slots
#: from ``2**k`` (so duplicates are the rule) and later ones draw 20.
LARGE_BUDGET = AlgorithmParameters.from_g(constant_g(4.0), a=0.05)

cjz_budgets = st.sampled_from(
    [("default", AlgorithmParameters.from_g()), ("large", LARGE_BUDGET)]
)


@contextlib.contextmanager
def recorded_stage_entries():
    """Record every stage entry of the CJZ program: per call, the stages
    entered, and per row the sends its stage drew and the distinct sends
    its plan kept (the index of the plan's first sentinel)."""
    calls = []
    real = CJZLockstepProgram._enter_stages

    def spy(program, rows, stages):
        real(program, rows, stages)
        kept = np.argmax(program._plan[rows] == LOCKSTEP_SENTINEL, axis=1)
        calls.append((stages.copy(), program._stage_counts[stages], kept))

    with mock.patch.object(CJZLockstepProgram, "_enter_stages", spy):
        yield calls


class TestCJZProgramPaths:
    """Each path of the CJZ program's stage entries, against reference."""

    @settings(max_examples=12, deadline=None)
    @given(
        count=st.integers(6, 10),
        jamming=st.sampled_from(sorted(JAMMERS)),
        horizon=st.integers(100, 200),
        trials=st.integers(1, 3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_large_budget_duplicate_draws_identical(
        self, count, jamming, horizon, trials, seed
    ):
        """A batch under the large budget collides in its first slots, so
        its stages draw ``2**k`` values from ``2**k`` and duplicates
        collapse."""

        def study(backend):
            return run_trials(
                protocol_factory=cjz_factory(LARGE_BUDGET),
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(count), JAMMERS[jamming]()
                ),
                horizon=horizon,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        with recorded_stage_entries() as calls:
            lockstep = study("lockstep")
        assert any((kept < drawn).any() for _, drawn, kept in calls)
        assert_studies_identical(study("reference"), lockstep)

    @settings(max_examples=12, deadline=None)
    @given(
        budget=cjz_budgets,
        stages=st.sets(st.integers(1, 5), min_size=2),
        counts=st.lists(st.integers(1, 3), min_size=5, max_size=5),
        extra=st.integers(0, 30),
        trials=st.integers(1, 3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_one_slot_enters_several_stages_identical(
        self, budget, stages, counts, extra, trials, seed
    ):
        """Batches anchored ``2·(2**k − 1)`` slots before a common slot enter
        their different stages ``k`` in it; jamming until then keeps every
        node in Phase 1, so the slot is certain to come."""
        _, params = budget
        target = 2 * (2**5 - 1) + 1 + extra
        schedule = {target - 2 * (2**k - 1): counts[k - 1] for k in stages}

        def study(backend):
            return run_trials(
                protocol_factory=cjz_factory(params),
                adversary_factory=lambda: ComposedAdversary(
                    ScheduledArrivals(schedule), FrontLoadedJamming(target)
                ),
                horizon=target + 120,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        with recorded_stage_entries() as calls:
            lockstep = study("lockstep")
        entered = [set(entries.tolist()) for entries, _, _ in calls]
        assert stages in entered
        assert_studies_identical(study("reference"), lockstep)

    @settings(max_examples=12, deadline=None)
    @given(
        budget=cjz_budgets,
        first=st.tuples(st.integers(1, 20), st.integers(1, 4)),
        second=st.tuples(st.integers(1, 60), st.integers(1, 4)),
        jamming=st.sampled_from(sorted(JAMMERS)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_global_clock_stop_when_drained_identical(
        self, budget, first, second, jamming, seed
    ):
        """The global-clock variant starts in Phase 2 at the next odd slot
        (one batch arrives on an even slot), and drained trials stop."""
        _, params = budget
        even = 2 * first[0]
        schedule = {even: first[1], even + second[0]: second[1]}
        horizon = 500

        def study(backend):
            return run_trials(
                protocol_factory=cjz_factory(params, global_clock=True),
                adversary_factory=lambda: ComposedAdversary(
                    ScheduledArrivals(schedule), JAMMERS[jamming]()
                ),
                horizon=horizon,
                trials=3,
                seed=seed,
                backend=backend,
                stop_when_drained=True,
            )

        reference, lockstep = study("reference"), study("lockstep")
        assert any(r.horizon < horizon for r in lockstep)
        assert [r.horizon for r in lockstep] == [r.horizon for r in reference]
        assert_studies_identical(reference, lockstep)
