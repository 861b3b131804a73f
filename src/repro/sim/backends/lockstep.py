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

Three columnar sub-systems cooperate:

* the protocol's :class:`~repro.protocols.base.LockstepProgram` holds every
  node's algorithm state as numpy columns (phases, anchors, backoff plans,
  windows) and produces the slot's broadcast mask;
* a :class:`~repro.rng.NodeStreamPool` replays every node's ``default_rng``
  stream bit for bit with vectorized PCG64 stepping, so draws happen in
  exactly the order and kind the per-node reference execution consumes them;
* a :class:`~repro.adversary.columnar.LockstepAdversaryDriver` supplies each
  slot's arrivals/jamming for all trials — precompiled schedules for
  oblivious adversaries, columnar counter updates for the bundled adaptive
  ones (reactive jamming, the success chaser), a per-instance Python loop
  for anything else.

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
lockstep_program`, no per-slot collectors, no trace retention, and the
runtime-verified RNG replication (:func:`repro.rng.lockstep_streams_ok`).
Any adversary is accepted.
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
    PrecompiledLockstepDriver,
    ReactiveJammingLockstepDriver,
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
    compile_adversary_schedules,
    emit_study_results,
)

__all__ = ["LockstepStudyKernel", "build_lockstep_driver", "emit_lockstep_results"]

AdversaryFactory = Callable[[], Adversary]

#: Initial per-trial node capacity when the arrival schedule is not known up
#: front (adaptive arrivals); grown by doubling as nodes are injected.
_INITIAL_CAPACITY = 16

#: ``auto``-selection rule.  The kernel pays a fixed cost per busy slot
#: (idle stretches are jumped), and its work per slot grows with the live
#: population, so lockstep beats the per-trial reference loop once enough
#: node-trials advance together.  The dispatch matrix ``repro bench``
#: records (four scenarios × trials {1, 2, 4, 8, 32} × horizons
#: {256, 1024}; ``BENCH_2026-10-17b.json``) puts the break-even below two
#: trials: from two trials on, lockstep was faster in every cell.  A single
#: trial is mixed: lockstep won six of the eight cells — lock-convoy (peak
#: of 192 single-slot arrivals) by 9-11×, and ethernet-burst (peak 24) no
#: longer loses — but lost wireless-interference at horizon 256 (1.3×) and
#: adversarial-jam at 1024 (1.7×).  So ``auto`` runs lockstep from two
#: trials on, and a single trial when the probe's peak reaches this floor;
#: over the matrix, ``auto``'s picks took 1.012× the faster tier's time.
#: An explicit ``backend="lockstep"`` request always runs.
_AUTO_TRIALS_FLOOR = 2
_AUTO_SINGLE_TRIAL_PEAK = 32

#: Trial-slot budget of one processing block.  The kernel's per-slot study
#: matrices (arrivals/jam/success/counts plus the int64 prefix planes at
#: emit) cost ~45 bytes per trial-slot, so bounding trial-slots per block
#: bounds peak memory the way the batched kernel's element cap does;
#: oversized studies run in contiguous trial blocks, which is semantically
#: free (trials are independent) and keeps ``streaming=True`` peak memory
#: at one block rather than the whole study.
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
        collectors: Sequence = (),
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
        if collectors:
            return (
                "collectors require per-slot records; use the reference "
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

    def supports_study(
        self,
        protocol_factory,
        adversary_factory: AdversaryFactory,
        config,
        collectors: Sequence = (),
        probe: Optional[StudyProbe] = None,
    ) -> bool:
        return (
            self.unsupported_reason(
                protocol_factory, adversary_factory, config, collectors, probe
            )
            is None
        )

    def auto_skip_reason(
        self, config, trials: int, probe: StudyProbe
    ) -> Optional[str]:
        """Why ``auto`` keeps this study off the lockstep tier (``None``: run it).

        See :data:`_AUTO_SINGLE_TRIAL_PEAK` for the measured rule; its
        inputs are the trial count and the probe's peak single-slot
        arrivals (``None`` for adversaries the probe does not precompile).
        """
        if trials >= _AUTO_TRIALS_FLOOR:
            return None
        peak = probe.peak_arrivals(config.horizon)
        if peak is not None and peak >= _AUTO_SINGLE_TRIAL_PEAK:
            return None
        return (
            f"trials={trials}, peak single-slot arrivals={peak}: the "
            f"per-trial loop is faster below {_AUTO_TRIALS_FLOOR} trials "
            f"unless the peak reaches {_AUTO_SINGLE_TRIAL_PEAK}"
        )

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
        return PrecompiledLockstepDriver(*compiled)

    def fresh_adversaries(states):
        built = [adversary_factory() for _ in range(plan.trials)]
        for index, adversary in enumerate(built):
            adversary.setup(plan.fresh_generator(states, index), horizon)
        return built

    states = plan.adversary_generator_states()
    adversaries = fresh_adversaries(states)
    driver = ReactiveJammingLockstepDriver.try_build(adversaries, horizon)
    if driver is None:
        driver = AdaptiveChaserLockstepDriver.try_build(adversaries, horizon)
    if driver is None:
        # The reactive builder may have consumed some trials' arrival
        # strategies before bailing; the generic per-slot driver needs
        # untouched instances, and rebuilding from the same plan-derived
        # generators is stream-identical.
        driver = GenericLockstepDriver(fresh_adversaries(states))
    return driver


class _LockstepRun:
    """One study execution: the per-slot loop plus its columnar bookkeeping."""

    def __init__(
        self,
        program: LockstepProgram,
        driver: LockstepAdversaryDriver,
        config,
        plan: SeedPlan,
        protocol_name: str,
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
            cum = np.cumsum(schedule, axis=1)
            over_trials, over_slots = np.nonzero(cum > config.max_nodes)
            if over_trials.size:
                raise ConfigurationError(
                    f"adversary exceeded max_nodes={config.max_nodes} "
                    f"at slot {int(over_slots[0])}"
                )
            self._capacity = max(1, int(cum[:, horizon].max())) if cum.size else 1
        else:
            self._capacity = _INITIAL_CAPACITY
        trials = self._trials
        rows = trials * self._capacity
        self._pool = NodeStreamPool(rows)
        self._seed_all_rows(0, self._capacity)
        program.bind(trials, self._capacity, self._pool, horizon)
        self._arrival_col = np.zeros(rows, dtype=np.int64)
        self._success_col = np.zeros(rows, dtype=np.int64)
        self._broadcasts_col = np.zeros(rows, dtype=np.int64)
        self._node_count = np.zeros(trials, dtype=np.int64)
        self._success_count = np.zeros(trials, dtype=np.int64)
        self._active = np.zeros(0, dtype=np.int64)
        self._active_trials = np.zeros(0, dtype=np.int64)
        self._trial_active = np.ones(trials, dtype=bool)
        self._simulated = np.full(trials, horizon, dtype=np.int64)
        self._arrivals_m = np.zeros((trials, horizon + 1), dtype=np.int64)
        self._jam_m = np.zeros((trials, horizon + 1), dtype=bool)
        self._success_m = np.zeros((trials, horizon + 1), dtype=bool)
        self._counts_m = np.zeros((trials, horizon + 1), dtype=np.int32)

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
        self._active = self._active_trials * new + (
            self._active - self._active_trials * old
        )
        self._capacity = new
        self._seed_all_rows(old, new)

    # --------------------------------------------------------------- arrivals

    def _inject(self, arrivals: np.ndarray, slot: int) -> None:
        config = self._config
        counts_after = self._node_count + arrivals
        if self._driver.arrival_schedule is None:
            if (counts_after > config.max_nodes).any():
                raise ConfigurationError(
                    f"adversary exceeded max_nodes={config.max_nodes} "
                    f"at slot {slot}"
                )
            needed = int(counts_after.max())
            if needed > self._capacity:
                self._grow(needed)
        trial_list = np.nonzero(arrivals)[0]
        trial_ids = np.repeat(trial_list, arrivals[trial_list])
        node_ids = np.concatenate(
            [
                self._node_count[t] + np.arange(arrivals[t], dtype=np.int64)
                for t in trial_list
            ]
        )
        rows = trial_ids * self._capacity + node_ids
        self._arrival_col[rows] = slot
        self._program.arrive(rows, slot)
        self._active = np.concatenate((self._active, rows))
        self._active_trials = np.concatenate((self._active_trials, trial_ids))
        self._node_count = counts_after
        self._arrivals_m[:, slot] = arrivals

    # ------------------------------------------------------------------ loop

    def execute(self) -> List[SimulationResult]:
        config = self._config
        horizon = config.horizon
        drain = config.stop_when_drained
        program = self._program
        driver = self._driver
        trials = self._trials
        slot = 1
        while slot <= horizon:
            # An idle slot draws no stream and runs no program hook, and the
            # study matrices are already zero there, so the driver can jump
            # the whole stretch.  Under stop_when_drained a running trial
            # that holds nodes may stop in any slot of it; step those.
            if not self._active.size and not (
                drain and (self._trial_active & (self._node_count > 0)).any()
            ):
                slot = driver.skip_idle(slot, self._trial_active, self._jam_m)
                if slot > horizon:
                    break
            arrivals, jam = driver.actions(slot, self._trial_active)
            self._jam_m[:, slot] = jam
            if arrivals.any():
                self._inject(arrivals, slot)
            rows = self._active
            if rows.size:
                sends = program.step(rows, slot)
                send_positions = np.nonzero(sends)[0]
                send_trials = self._active_trials[send_positions]
                counts = np.bincount(send_trials, minlength=trials).astype(
                    np.int32
                )
            else:
                sends = np.zeros(0, dtype=bool)
                send_positions = send_trials = np.zeros(0, dtype=np.int64)
                counts = np.zeros(trials, dtype=np.int32)
            self._counts_m[:, slot] = counts
            if send_positions.size:
                self._broadcasts_col[rows[send_positions]] += 1
            success = (counts == 1) & ~jam & self._trial_active
            winner_ids = np.full(trials, -1, dtype=np.int64)
            any_success = success.any()
            if any_success:
                winning = success[send_trials]
                winner_positions = send_positions[winning]
                winner_rows = rows[winner_positions]
                self._success_col[winner_rows] = slot
                self._success_m[:, slot] = success
                self._success_count += success
                winner_ids[send_trials[winning]] = (
                    winner_rows - send_trials[winning] * self._capacity
                )
            if rows.size:
                trial_success = success[self._active_trials]
                own = np.zeros(len(rows), dtype=bool)
                if any_success:
                    own[winner_positions] = True
                program.feedback(slot, rows, sends, trial_success, own)
            driver.observe(slot, success, winner_ids, self._trial_active)
            if any_success:
                keep = ~own
                self._active = rows[keep]
                self._active_trials = self._active_trials[keep]
            if drain and self._check_drained(slot):
                break
            slot += 1
        return self._emit()

    def _check_drained(self, slot: int) -> bool:
        """Stop trials whose system is empty and arrivals exhausted.

        Returns True when every trial has stopped.  A stopping trial has no
        active rows by construction (occupancy is exactly its live node
        count), so the active row set needs no pruning.
        """
        drained = (
            self._trial_active
            & (self._node_count > 0)
            & (self._node_count == self._success_count)
        )
        if drained.any():
            for trial in np.nonzero(drained)[0]:
                trial = int(trial)
                if self._driver.exhausted(trial, slot):
                    self._trial_active[trial] = False
                    self._simulated[trial] = slot
        return not self._trial_active.any()

    # ------------------------------------------------------------------ emit

    def _emit(self) -> List[SimulationResult]:
        return emit_lockstep_results(
            [self._driver.describe(t) for t in range(self._trials)],
            self._config.horizon,
            self._capacity,
            self._node_count,
            self._arrival_col,
            self._success_col,
            self._broadcasts_col,
            self._simulated,
            self._arrivals_m,
            self._jam_m,
            self._success_m,
            self._counts_m,
            self._protocol_name,
            LockstepStudyKernel.name,
        )


def emit_lockstep_results(
    adversary_names: List[str],
    horizon: int,
    capacity: int,
    node_count: np.ndarray,
    arrival_col: np.ndarray,
    success_col: np.ndarray,
    broadcasts_col: np.ndarray,
    simulated: np.ndarray,
    arrivals_m: np.ndarray,
    jam_m: np.ndarray,
    success_m: np.ndarray,
    counts_m: np.ndarray,
    protocol_name: str,
    backend_name: str,
) -> List[SimulationResult]:
    """Assemble results from the lockstep loop's columnar bookkeeping.

    Shared by the numpy lockstep kernel and the compiled (``lockstep-jit``)
    kernel — both produce the same flat outcome columns and per-slot study
    matrices, so the prefix-plane construction and per-trial assembly are
    identical.
    """
    trials = len(adversary_names)
    nodes_per_trial = node_count
    row_starts = np.concatenate(
        ([0], np.cumsum(nodes_per_trial))
    ).astype(np.int64)
    order = np.concatenate(
        [
            t * capacity + np.arange(nodes_per_trial[t], dtype=np.int64)
            for t in range(trials)
        ]
    ) if int(nodes_per_trial.sum()) else np.zeros(0, dtype=np.int64)

    cum_arrivals = np.cumsum(arrivals_m, axis=1)
    stacked = np.stack((success_m, jam_m))
    stacked[:, :, 0] = False
    # int64 planes so each trial's counters are zero-copy views into the
    # shared study matrices, exactly as the batched kernel emits them.
    prefix = np.empty((3, trials, horizon + 1), dtype=np.int64)
    np.cumsum(stacked, axis=2, out=prefix[:2])
    successes_before = np.zeros_like(cum_arrivals)
    successes_before[:, 1:] = prefix[0, :, :-1]
    active_full = (cum_arrivals - successes_before) > 0
    active_full[:, 0] = False
    np.cumsum(active_full, axis=1, out=prefix[2])
    silence = (~jam_m) & (counts_m == 0)
    silence[:, 0] = False
    silence_prefix = np.cumsum(silence, axis=1)
    silence_at = silence_prefix[np.arange(trials), simulated]

    success_ordered = success_col[order]
    sim_per_row = np.repeat(simulated, nodes_per_trial)
    finished = (success_ordered >= 1) & (success_ordered <= sim_per_row)

    return emit_study_results(
        adversary_names,
        nodes_per_trial,
        row_starts,
        arrival_col[order].tolist(),
        success_ordered.tolist(),
        finished.tolist(),
        broadcasts_col[order].tolist(),
        simulated,
        cum_arrivals,
        prefix,
        silence_at,
        protocol_name,
        backend_name,
    )
