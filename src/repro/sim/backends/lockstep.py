"""The lockstep study kernel: trial-parallel execution of feedback-driven protocols.

The batched study kernel resolves whole horizons up front, which only works
for protocols whose decisions ignore feedback.  The paper's own algorithm is
feedback-*driven* — phase transitions fire on observed successes — so its
broadcast matrix cannot be precomputed.  This kernel flips the vectorization
axis instead: it steps slot by slot through the horizon, but advances the
**entire T-trial × N-node population per slot** with array operations — one
Python iteration per busy slot instead of ``T × N × horizon``.  Slots in
which no running trial holds a live node are idle: the adversary driver
jumps each such stretch to the next slot that needs the per-slot path
(:meth:`~repro.adversary.columnar.LockstepAdversaryDriver.skip_idle`).
A program that knows its sends ahead (the age-profile protocols draw each
node's sends when it arrives) reports its next one
(:attr:`~repro.protocols.base.LockstepProgram.next_event`), and the
driver jumps the quiet slots before it the same way, stopping at the next
arrival and at the next trial horizon; it does not skip while a reactive
burst is pending or a drained trial waits for its arrivals to run out.

Three columnar sub-systems cooperate:

* the protocol's :class:`~repro.protocols.base.LockstepProgram` holds every
  node's algorithm state as numpy columns (phases, anchors, backoff plans,
  windows) and produces the slot's broadcast mask;
* a :class:`~repro.rng.NodeStreamPool` holds every node's ``default_rng``
  stream: a program replays it bit for bit with vectorized PCG64 stepping,
  draw by draw, or, where feedback cannot change a node's next draws (the
  age-profile protocols' sends, CJZ Phase 3), reads a window of them
  natively ahead of time, so draws happen in exactly the order and kind
  the per-node reference execution consumes them;
* a :class:`~repro.adversary.columnar.LockstepAdversaryDriver` supplies each
  slot's arrivals/jamming for all trials — precompiled schedules for
  oblivious adversaries, columnar counter updates for the bundled adaptive
  ones (reactive jamming, the success chaser), a per-instance Python loop
  for anything else.  When the driver knows the whole arrival schedule,
  every scheduled node arrives in one program call before slot 1 and each
  arrival slot only activates its slice of rows; otherwise each slot's
  arrivals arrive as the driver reveals them, growing the columns.

A busy slot touches a few dozen rows, so numpy's fixed cost per call
outweighs its element work.  The loop therefore counts with
``np.count_nonzero``, takes indices with ``.nonzero()[0]`` and shares
read-only arrays across the slots without a sender or a success.

Trials stop one by one.  Under ``stop_when_drained`` a trial stops once
its system is empty and its arrivals are exhausted, which can newly happen
only in a slot with a success; a drained trial whose adversary may still
inject is checked every slot until it can.  A fused run
(:mod:`~repro.sim.backends.fused`) may stack studies of different
horizons: it binds at the largest, pads every shorter member's adversary
schedule with empty slots, and stops each trial at the first visited slot
that reaches its own horizon, the way a drained trial stops.  The stop
step runs only on those slots.

The run keeps two per-slot matrices, both bool: the jam flags and whether
some node sent.  Each fused member's results are emitted from its own
contiguous trial slice (a solo run is one member): its node columns, its
jammed and silent slot counts from the flags cut at each trial's stop, and
its per-slot counters, which each result derives on first read from its
node columns and its own copy of its jam flags
(:class:`~repro.sim.results.SimulationResult`).  A sweep that reads only
summaries, latencies and energy never builds a per-slot int64 column.

Bit-for-bit reproducibility
---------------------------

Node streams are derived read-only from the same spawn keys the serial path
uses (:class:`~repro.sim.backends.studysupport.SeedPlan`), adversary streams
are consumed through the same ``setup``/``precompile`` calls, and the slot
semantics (resolution order, feedback delivery, winner departure, early
stop) mirror the reference loop exactly.  The property suite enforces
seed-for-seed equality against the serial reference for every protocol with
a lockstep program, across oblivious and adaptive adversaries.

Eligibility: a protocol exposing :meth:`~repro.protocols.base.Protocol.
lockstep_program`, no trace retention, and the runtime-verified RNG
replication (:func:`repro.rng.lockstep_streams_ok`).  Any adversary is
accepted, and any trial count: under ``auto`` every eligible study runs
here (or on the compiled tier), the age-profile ones included.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from ...adversary.base import Adversary
from ...adversary.columnar import (
    AdaptiveChaserLockstepDriver,
    GenericLockstepDriver,
    LockstepAdversaryDriver,
    ScheduledLockstepDriver,
)
from ...errors import ConfigurationError
from ...protocols.base import LockstepProgram
from ...rng import NodeStreamPool
from ..artifacts import streams_verified
from ..results import SimulationResult
from .studysupport import (
    MAX_BLOCK_ELEMENTS,
    SeedPlan,
    StudyProbe,
    _cumulative_arrivals,
    compile_adversary_schedules,
    emit_study_results,
)

__all__ = ["LockstepStudyKernel", "build_lockstep_driver", "emit_lockstep_results"]

AdversaryFactory = Callable[[], Adversary]

#: Initial per-trial node capacity when the arrival schedule is not known up
#: front (adaptive arrivals); grown by doubling as nodes are injected.
_INITIAL_CAPACITY = 16

#: Trial-slot budget of one processing block.  The kernel's per-slot study
#: data (two bool flag matrices, the bool masks emission counts silence and
#: jamming on, each result's copy of its jam flags, and the driver's int64
#: arrival schedule when it has one) grows with trial-slots, so bounding
#: trial-slots per block bounds peak memory the way the batched kernel's
#: element cap does; oversized studies run in contiguous trial blocks,
#: which is semantically free (trials are independent) and keeps
#: ``streaming=True`` peak memory at one block rather than the whole study.
_BLOCK_TRIAL_SLOTS = MAX_BLOCK_ELEMENTS // 4


class LockstepStudyKernel:
    """Study-level backend: slot-lockstep array execution of all trials."""

    name = "lockstep"

    # ------------------------------------------------------------ eligibility

    def unsupported_reason(
        self,
        protocol_factory,
        adversary_factory: AdversaryFactory,
        config,
        probe: Optional[StudyProbe] = None,
    ) -> Optional[str]:
        """Why this study cannot run lockstep (``None`` when it can)."""
        if probe is None:
            probe = StudyProbe(protocol_factory, adversary_factory)
        if probe.program is None:
            return (
                f"protocol {probe.protocol.name!r} has no columnar lockstep "
                "program (it must implement Protocol.lockstep_program)"
            )
        if config.keep_trace:
            return (
                "keep_trace requires per-slot records; use the reference "
                "backend"
            )
        if config.horizon >= 2**31:
            return "lockstep supports horizons below 2**31 slots"
        if not streams_verified():
            return (
                "this numpy's generator internals diverge from the verified "
                "lockstep RNG replication"
            )
        return None

    # ------------------------------------------------------------------- run

    def run_study(
        self,
        protocol_factory,
        adversary_factory: AdversaryFactory,
        config,
        trial_trees,  # List[SeedTree] or TrialSeedBatch
        protocol_name: str = "protocol",
        probe: Optional[StudyProbe] = None,
    ) -> Optional[List[SimulationResult]]:
        """Execute all trials, or return ``None`` when the study must fall
        back to the per-trial path.

        A ``None`` return guarantees the trial seed trees were not consumed
        (seed derivation is read-only), so the caller can rerun every trial
        through the per-trial ladder with identical results.
        """
        start_time = time.perf_counter()
        if probe is None:
            probe = StudyProbe(protocol_factory, adversary_factory)
        if probe.program is None or not streams_verified():
            return None
        plan = SeedPlan.build(trial_trees)
        if not plan.fast:
            return None

        block_trials = max(1, _BLOCK_TRIAL_SLOTS // (config.horizon + 1))
        results: List[SimulationResult] = []
        for lo in range(0, plan.trials, block_trials):
            hi = min(plan.trials, lo + block_trials)
            block_plan = plan if (lo, hi) == (0, plan.trials) else plan.restrict(lo, hi)
            driver = build_lockstep_driver(adversary_factory, config, block_plan)
            if driver is None:
                # Only reachable on the first block: driver construction
                # depends solely on the factory, so a later block cannot
                # bail after an earlier one succeeded.
                return None
            results.extend(
                _LockstepRun(
                    probe.take_program(),
                    driver,
                    config,
                    block_plan,
                    protocol_name,
                ).execute()
            )

        per_trial = (time.perf_counter() - start_time) / max(1, len(results))
        for result in results:
            result.wall_time_seconds = per_trial
        return results


def build_lockstep_driver(
    adversary_factory: AdversaryFactory, config, plan: SeedPlan
) -> Optional[LockstepAdversaryDriver]:
    """Resolve the adversary driver, consuming streams as the serial path would."""
    horizon = config.horizon
    if adversary_factory().precompilable:
        compiled = compile_adversary_schedules(
            adversary_factory, config, plan, horizon
        )
        if compiled is None:
            return None
        return ScheduledLockstepDriver(*compiled)

    def fresh_adversaries(states):
        built = [adversary_factory() for _ in range(plan.trials)]
        for index, adversary in enumerate(built):
            adversary.setup(plan.fresh_generator(states, index), horizon)
        return built

    states = plan.adversary_generator_states()
    adversaries = fresh_adversaries(states)
    driver = ScheduledLockstepDriver.try_reactive(adversaries, horizon)
    if driver is None:
        driver = AdaptiveChaserLockstepDriver.try_build(adversaries, horizon)
    if driver is None:
        # The reactive builder may have consumed some trials' arrival
        # strategies before bailing; the generic per-slot driver needs
        # untouched instances, and rebuilding from the same plan-derived
        # generators is stream-identical.
        driver = GenericLockstepDriver(fresh_adversaries(states))
    return driver


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _row_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


class _LockstepRun:
    """One study execution: the per-slot loop plus its columnar bookkeeping."""

    def __init__(
        self,
        program: LockstepProgram,
        driver: LockstepAdversaryDriver,
        config,
        plan: SeedPlan,
        protocol_name: str,
        horizons: Optional[np.ndarray] = None,
        members: Optional[Sequence[int]] = None,
    ) -> None:
        self._program = program
        self._driver = driver
        self._config = config
        self._plan = plan
        self._protocol_name = protocol_name
        self._trials = plan.trials
        horizon = config.horizon
        schedule = driver.arrival_schedule
        if schedule is not None:
            cum = _cumulative_arrivals(schedule, config)
            self._capacity = max(1, int(cum[:, horizon].max(initial=0)))
        else:
            self._capacity = _INITIAL_CAPACITY
        trials = self._trials
        rows = trials * self._capacity
        self._pool = NodeStreamPool(rows)
        self._seed_all_rows(0, self._capacity)
        program.bind(trials, self._capacity, self._pool, horizon)
        self._arrival_col = np.zeros(rows, dtype=np.int64)
        if schedule is not None:
            # Every scheduled node arrives now, in (slot, trial, node) order
            # so that each slot's arrivals are one slice; slot 0 is no slot.
            slots, trial_ids = np.nonzero(schedule[:, 1:].T)
            slots += 1
            counts = schedule[trial_ids, slots]
            first = cum[trial_ids, slots] - counts - schedule[trial_ids, 0]
            arriving = _row_ranges(trial_ids * self._capacity + first, counts)
            row_slots = np.repeat(slots, counts)
            self._arrival_col[arriving] = row_slots
            self._scheduled_rows = _read_only(arriving)
            program.arrive(arriving, row_slots)
            self._slot_starts = np.searchsorted(
                row_slots, np.arange(horizon + 2)
            ).tolist()
        self._success_col = np.zeros(rows, dtype=np.int64)
        self._broadcasts_col = np.zeros(rows, dtype=np.int64)
        self._node_count = np.zeros(trials, dtype=np.int64)
        self._success_count = np.zeros(trials, dtype=np.int64)
        # Hooks get read-only arrays: none can change what later slots see.
        self._active = _read_only(np.zeros(0, dtype=np.int64))
        self._active_trials = np.zeros(0, dtype=np.int64)
        self._trial_active = _read_only(np.ones(trials, dtype=bool))
        # A running trial's ``_simulated`` entry is its horizon.  A fused
        # run of mixed horizons binds at the largest and passes them per
        # trial; ``_next_end`` is the earliest one still running.
        if horizons is None:
            self._simulated = np.full(trials, horizon, dtype=np.int64)
            self._next_end = horizon + 1
        else:
            self._simulated = np.array(horizons, dtype=np.int64)
            self._next_end = int(horizons.min())
        # Trial counts of the fused members, each emitted on its own.
        self._members = [trials] if members is None else list(members)
        # A drained trial waits while its adversary may still inject.
        self._waiting = False
        # Per-slot flags: the jam flags each result keeps for its counters,
        # and whether any node sent, which only silence reads.
        shape = (trials, horizon + 1)
        self._jam_m = np.zeros(shape, dtype=bool)
        self._sent_m = np.zeros(shape, dtype=bool)

    # --------------------------------------------------------------- seeding

    def _seed_all_rows(self, from_node: int, to_node: int) -> None:
        """Seed the pool for every (trial, node) pair in the index range.

        One bulk hash covers the whole rectangle — the per-call cost of
        :func:`repro.rng.bulk_seed_states` is a fixed number of vectorized
        passes, so deriving states for nodes that never arrive is far
        cheaper than deriving small batches per arrival slot.  Unused rows
        are never drawn from, so over-seeding cannot perturb any stream.
        """
        span = to_node - from_node
        if span <= 0:
            return
        trials = self._trials
        node_ids = np.tile(
            np.arange(from_node, to_node, dtype=np.int64), trials
        )
        trial_ids = np.repeat(np.arange(trials, dtype=np.int64), span)
        states = self._plan.node_states_pairs(trial_ids, node_ids)
        assert states is not None  # plan.fast and 32-bit components guaranteed
        self._pool.seed_rows(trial_ids * self._capacity + node_ids, states)

    # ---------------------------------------------------------------- growth

    def _grow(self, needed: int) -> None:
        old = self._capacity
        new = old
        while new < needed:
            new *= 2
        trials = self._trials
        args = (trials, old, new)
        from ...protocols.base import grow_flat_column

        self._arrival_col = grow_flat_column(self._arrival_col, *args)
        self._success_col = grow_flat_column(self._success_col, *args)
        self._broadcasts_col = grow_flat_column(self._broadcasts_col, *args)
        node_index = np.tile(np.arange(new, dtype=np.int64), trials)
        trial_index = np.repeat(np.arange(trials, dtype=np.int64), new)
        gather = np.where(node_index < old, trial_index * old + node_index, -1)
        self._pool.remap(gather, trials * new)
        self._program.grow(trials, old, new)
        self._active = _read_only(
            self._active_trials * new + (self._active - self._active_trials * old)
        )
        self._capacity = new
        self._seed_all_rows(old, new)

    # --------------------------------------------------------------- arrivals

    def _inject(self, arrivals: np.ndarray, slot: int) -> None:
        config = self._config
        if self._driver.arrival_schedule is not None:
            # Already arrived in __init__: activate the slot's slice.
            lo, hi = self._slot_starts[slot], self._slot_starts[slot + 1]
            rows = self._scheduled_rows[lo:hi]
            if np.count_nonzero(self._trial_active) < self._trials:
                # A stopped trial's driver reports no arrivals, whatever
                # its schedule still holds.
                rows = rows[arrivals[rows // self._capacity].nonzero()[0]]
        else:
            counts_after = self._node_count + arrivals
            if np.count_nonzero(counts_after > config.max_nodes):
                raise ConfigurationError(
                    f"adversary exceeded max_nodes={config.max_nodes} "
                    f"at slot {slot}"
                )
            needed = int(counts_after.max())
            if needed > self._capacity:
                self._grow(needed)
            arriving = arrivals.nonzero()[0]
            rows = _row_ranges(
                arriving * self._capacity + self._node_count[arriving],
                arrivals[arriving],
            )
            self._arrival_col[rows] = slot
            self._program.arrive(rows, slot)
        self._active = _read_only(np.concatenate((self._active, rows)))
        self._active_trials = np.concatenate(
            (self._active_trials, rows // self._capacity)
        )
        self._node_count += arrivals

    # ------------------------------------------------------------------ loop

    def execute(self) -> List[SimulationResult]:
        config = self._config
        horizon = config.horizon
        drain = config.stop_when_drained
        program = self._program
        driver = self._driver
        trials = self._trials
        # Read once: programs without the hook visit every busy slot.
        next_event = getattr(program, "next_event", None)
        # Slots without a success share these.
        no_success = _read_only(np.zeros(trials, dtype=bool))
        no_winners = _read_only(np.full(trials, -1, dtype=np.int64))
        slot = 1
        while slot <= horizon:
            # An idle slot draws no stream and runs no program hook, and the
            # study matrices are already zero there, so the driver can jump
            # the whole stretch.  So can a quiet one, in which the program
            # knows no live row sends: no success, no state change.  A
            # quiet skip stops where a trial's horizon ends.  Under
            # stop_when_drained a drained trial waiting for its arrivals to
            # run out may stop in any slot; step those.
            if not self._waiting:
                if not self._active.size:
                    slot = driver.skip_idle(slot, self._trial_active, self._jam_m)
                elif next_event is not None:
                    until = min(next_event(self._active, slot), self._next_end)
                    if until > slot:
                        slot = driver.skip_idle(
                            slot, self._trial_active, self._jam_m, until
                        )
                if slot > horizon:
                    break
            arrivals, jam = driver.actions(slot, self._trial_active)
            self._jam_m[:, slot] = jam
            if np.count_nonzero(arrivals):
                self._inject(arrivals, slot)
            rows = self._active
            success, winner_ids = no_success, no_winners
            if rows.size:
                sends = program.step(rows, slot)
                send_positions = sends.nonzero()[0]
                trial_success = own = np.zeros(len(rows), dtype=bool)
                if send_positions.size:
                    send_trials = self._active_trials[send_positions]
                    counts = np.bincount(send_trials, minlength=trials)
                    self._sent_m[send_trials, slot] = True
                    self._broadcasts_col[rows[send_positions]] += 1
                    # A lone sender is rare in a crowded slot: test for
                    # one before masking jammed and stopped trials.
                    hits = counts == 1
                    if np.count_nonzero(hits):
                        hits &= ~jam
                        hits &= self._trial_active
                    if np.count_nonzero(hits):
                        success = hits
                        winning = success[send_trials]
                        winner_positions = send_positions[winning]
                        winner_rows = rows[winner_positions]
                        self._success_col[winner_rows] = slot
                        self._success_count += success
                        winner_ids = no_winners.copy()
                        winner_ids[send_trials[winning]] = (
                            winner_rows - send_trials[winning] * self._capacity
                        )
                        trial_success = success[self._active_trials]
                        own = np.zeros(len(rows), dtype=bool)
                        own[winner_positions] = True
                program.feedback(slot, rows, sends, trial_success, own)
            driver.observe(slot, success, winner_ids, self._trial_active)
            if success is not no_success:
                keep = ~own
                self._active = _read_only(rows[keep])
                self._active_trials = self._active_trials[keep]
            # A trial stops once its horizon has passed, or when it drains,
            # which it newly can only in a slot with a success.
            if slot >= self._next_end or (
                drain and (success is not no_success or self._waiting)
            ):
                if self._stop_trials(slot):
                    break
            slot += 1
        return self._emit()

    def _stop_trials(self, slot: int) -> bool:
        """Stop the trials whose horizon has passed or whose system drained.

        A trial past its horizon keeps the horizon as its length and leaves
        the active row set.  A drained trial (system empty, arrivals
        exhausted) stops at ``slot``; it has no active rows by construction
        (occupancy is exactly its live node count).  Returns True when
        every trial has stopped.
        """
        trial_active = self._trial_active.copy()
        ended = slot >= self._next_end
        if ended:
            trial_active &= self._simulated > slot
        if self._config.stop_when_drained:
            drained = (
                trial_active
                & (self._node_count > 0)
                & (self._node_count == self._success_count)
            )
            candidates = drained.nonzero()[0].tolist()
            stopped = [t for t in candidates if self._driver.exhausted(t, slot)]
            self._waiting = len(stopped) < len(candidates)
            trial_active[stopped] = False
            self._simulated[stopped] = slot
        if ended:
            keep = trial_active[self._active_trials]
            self._active = _read_only(self._active[keep])
            self._active_trials = self._active_trials[keep]
            self._next_end = int(
                self._simulated[trial_active].min(initial=self._config.horizon + 1)
            )
        self._trial_active = _read_only(trial_active)
        return not np.count_nonzero(trial_active)

    # ------------------------------------------------------------------ emit

    def _emit(self) -> List[SimulationResult]:
        return emit_lockstep_results(
            [self._driver.describe(t) for t in range(self._trials)],
            self._capacity,
            self._node_count,
            self._arrival_col,
            self._success_col,
            self._broadcasts_col,
            self._simulated,
            self._jam_m,
            self._sent_m,
            self._protocol_name,
            LockstepStudyKernel.name,
            self._members,
        )


def emit_lockstep_results(
    adversary_names: List[str],
    capacity: int,
    node_count: np.ndarray,
    arrival_col: np.ndarray,
    success_col: np.ndarray,
    broadcasts_col: np.ndarray,
    simulated: np.ndarray,
    jam_m: np.ndarray,
    sent_m: np.ndarray,
    protocol_name: str,
    backend_name: str,
    members: Optional[Sequence[int]] = None,
) -> List[SimulationResult]:
    """Assemble results from the lockstep loop's columnar bookkeeping.

    Shared by the numpy lockstep kernel and the compiled (``lockstep-jit``)
    kernel, which produce the same flat outcome columns and per-slot
    flags: trial ``t``'s nodes are the first ``node_count[t]`` rows of its
    ``capacity`` (every node that arrived by its stop, in arrival order,
    success slot 0 while unfinished), and ``jam_m`` and ``sent_m`` are
    bool planes, true where the slot was jammed and where some node sent.
    Each member of ``members`` (trial counts; default one) is emitted from
    its own contiguous trial slice: node columns gathered for it alone,
    flags cut at its longest trial, on which jammed and silent slots are
    counted per trial.  No per-slot count is summed here; each
    result derives its counters on first read from its own jam flags.
    """
    results: List[SimulationResult] = []
    lo = 0
    for count in [len(adversary_names)] if members is None else members:
        ids = slice(lo, lo + count)
        lo += count
        sim = simulated[ids]
        cut = np.s_[ids, : int(sim.max()) + 1]
        jam = jam_m[cut]
        run = np.arange(jam.shape[1]) <= sim[:, None]  # slots 1..stop
        run[:, 0] = False
        silent = ~sent_m[cut] & ~jam & run
        order = _row_ranges(
            np.arange(ids.start, ids.stop, dtype=np.int64) * capacity,
            node_count[ids],
        )
        results.extend(
            emit_study_results(
                adversary_names[ids],
                node_count[ids],
                arrival_col[order],
                success_col[order],
                broadcasts_col[order],
                sim,
                np.count_nonzero(jam & run, axis=1),
                np.count_nonzero(silent, axis=1),
                protocol_name,
                backend_name,
                jam_m=jam,
            )
        )
    return results
