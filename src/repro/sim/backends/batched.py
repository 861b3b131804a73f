"""The batched study kernel: all trials of a study in one array pass.

Every experiment in the reproduction is really a *study* — tens to hundreds of
independent trials of the same (protocol, adversary, horizon) triple.  The
per-trial vectorized kernel already resolves one run with arrays, but each
trial still pays the full Python setup: a ``Simulator``, two seed-tree spawns,
an adversary setup, a probability-vector probe, and ~50 small numpy calls.
This kernel amortizes all of that across the whole study:

* all per-node random streams are derived with one **bulk seed hash**
  (:func:`repro.rng.bulk_seed_states`) and replayed through pooled,
  state-reseeded generators — no ``SeedSequence``/``Generator`` objects per
  node;
* the broadcast matrices of all trials are stacked into one
  ``(ΣN_t) × (horizon+1)`` block, resolved with whole-matrix comparisons;
* successes are peeled in **lockstep rounds**: every round advances each
  still-active trial by exactly one success (its earliest eligible
  single-broadcaster slot), which is the sequential per-trial peel executed
  across the block diagonal with a handful of matrix operations per round;
* all ``T`` :class:`~repro.sim.results.SimulationResult` objects are emitted
  from shared prefix matrices.

Bit-for-bit reproducibility
---------------------------

The kernel reproduces the serial reference path exactly, trial for trial: the
same seeds are derived (read-only — the trial seed trees are never spawned
from, so any mid-flight bail-out can rerun them untouched), the same per-node
uniforms are drawn from the same PCG64 streams, and the same slot semantics
apply.  The property suite enforces equality against the serial reference
study.

Eligibility is the vectorized kernel's (vector-eligible protocol, oblivious
precompilable adversary) plus no trace retention (a trace needs per-slot
records; the runner falls back to the per-trial path for it).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from ...adversary.base import Adversary
from ...rng import ReusableGenerator
from ..results import SimulationResult
from .base import age_probability_profile
from .studysupport import (
    MAX_BLOCK_ELEMENTS as _MAX_BLOCK_ELEMENTS,
    SeedPlan as _SeedPlan,
    StudyProbe as _StudyProbe,
    compile_adversary_schedules,
    emit_study_results,
    iter_blocks as _blocks,
    study_early_stops,
)

__all__ = ["BatchedStudyKernel"]

AdversaryFactory = Callable[[], Adversary]


class BatchedStudyKernel:
    """Study-level backend: one numpy pass over all trials of a study."""

    name = "batched-study"

    # ------------------------------------------------------------ eligibility

    def unsupported_reason(
        self,
        protocol_factory,
        adversary_factory: AdversaryFactory,
        config,
        probe: Optional[_StudyProbe] = None,
    ) -> Optional[str]:
        """Why this study cannot run batched (``None`` when it can)."""
        if probe is None:
            probe = _StudyProbe(protocol_factory, adversary_factory)
        protocol = probe.protocol
        if not protocol.vector_eligible:
            return (
                f"protocol {protocol.name!r} is not vector-eligible "
                "(its broadcast decisions depend on feedback or are not "
                "independent per-slot Bernoulli draws)"
            )
        adversary = probe.adversary
        if not adversary.precompilable:
            return (
                f"adversary {adversary.describe()!r} is adaptive and cannot "
                "be precompiled into a whole-horizon schedule"
            )
        if config.keep_trace:
            return (
                "keep_trace requires per-slot records; use the vectorized or "
                "reference backend"
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
        probe: Optional[_StudyProbe] = None,
    ) -> Optional[List[SimulationResult]]:
        """Execute all trials, or return ``None`` when the study must fall
        back to the per-trial path.

        A ``None`` return guarantees the trial seed trees were not consumed
        (seed derivation is read-only), so the caller can rerun every trial
        through :class:`~repro.sim.engine.Simulator` with identical results.
        """
        horizon = config.horizon
        start_time = time.perf_counter()

        probabilities = age_probability_profile(protocol_factory, horizon)
        if probabilities is None:
            return None

        plan = _SeedPlan.build(trial_trees)
        schedules = self._compile_adversaries(
            adversary_factory, config, plan, horizon
        )
        if schedules is None:
            return None
        adversaries, arrivals_all, jammed_all = schedules

        nodes_per_trial = arrivals_all.sum(axis=1)
        if nodes_per_trial.size and int(nodes_per_trial.max()) * (
            horizon + 1
        ) > _MAX_BLOCK_ELEMENTS:
            return None

        results: List[SimulationResult] = []
        for lo, hi in _blocks(nodes_per_trial, horizon):
            results.extend(
                self._run_block(
                    config,
                    plan,
                    adversaries[lo:hi],
                    arrivals_all[lo:hi],
                    jammed_all[lo:hi],
                    nodes_per_trial[lo:hi],
                    probabilities,
                    range(lo, hi),
                    protocol_name,
                )
            )

        # Wall time is measured for the whole study and attributed evenly:
        # individual trials have no meaningful separate duration here.
        per_trial = (time.perf_counter() - start_time) / max(1, len(results))
        for result in results:
            result.wall_time_seconds = per_trial
        return results

    # ------------------------------------------------------------- internals

    def _compile_adversaries(
        self,
        adversary_factory: AdversaryFactory,
        config,
        plan: "_SeedPlan",
        horizon: int,
    ) -> Optional[Tuple[List[Adversary], np.ndarray, np.ndarray]]:
        """Per-trial adversary setup + precompilation (shared study machinery)."""
        return compile_adversary_schedules(adversary_factory, config, plan, horizon)

    def _run_block(
        self,
        config,
        plan: "_SeedPlan",
        adversaries: List[Adversary],
        arrivals: np.ndarray,
        jammed: np.ndarray,
        nodes_per_trial: np.ndarray,
        probabilities: np.ndarray,
        trial_indices: range,
        protocol_name: str,
    ) -> List[SimulationResult]:
        horizon = config.horizon
        block_trials = arrivals.shape[0]
        columns = np.arange(horizon + 1)
        row_starts = np.concatenate(
            ([0], np.cumsum(nodes_per_trial))
        ).astype(np.int64)
        total_rows = int(row_starts[-1])

        # --- per-node uniforms, drawn from the exact per-node streams -------
        arrival_rows = [
            np.repeat(columns, arrivals[b]) for b in range(block_trials)
        ]
        arrival_slots = (
            np.concatenate(arrival_rows)
            if arrival_rows
            else np.zeros(0, dtype=np.int64)
        )
        uniforms = np.zeros((total_rows, horizon + 1))
        node_states = plan.node_generator_states(
            trial_indices, nodes_per_trial, total_rows
        )
        arrival_list = arrival_slots.tolist()
        if node_states is not None:
            pool = ReusableGenerator()
            reseed = pool.reseed
            for state, a, row in zip(node_states.tolist(), arrival_list, uniforms):
                reseed(state).random(out=row[a:])
        else:
            slow_generators = plan.slow_node_generators(
                trial_indices, nodes_per_trial
            )
            for generator, a, row in zip(slow_generators, arrival_list, uniforms):
                generator.random(out=row[a:])

        broadcasts = self._resolve_broadcasts(
            uniforms, arrival_slots, probabilities, horizon
        )
        del uniforms

        # --- per-trial counts and winner-index sums (block-diagonal) --------
        row_index = np.arange(total_rows, dtype=np.int64)
        uniform_nodes = nodes_per_trial.size and int(nodes_per_trial.min()) == int(
            nodes_per_trial.max()
        )
        if uniform_nodes and nodes_per_trial[0] > 0:
            # Equal trial sizes: fold the block into (T, N, H+1) and resolve
            # both per-trial reductions with two whole-array passes.
            per_trial = int(nodes_per_trial[0])
            folded = broadcasts.reshape(block_trials, per_trial, horizon + 1)
            counts = folded.sum(axis=1, dtype=np.int32)
            local = np.arange(per_trial, dtype=np.int64)
            index_sums = (folded * local[None, :, None]).sum(axis=1)
            index_sums += counts.astype(np.int64) * row_starts[:-1, None]
        else:
            counts = np.zeros((block_trials, horizon + 1), dtype=np.int32)
            index_sums = np.zeros((block_trials, horizon + 1), dtype=np.int64)
            for b in range(block_trials):
                lo, hi = int(row_starts[b]), int(row_starts[b + 1])
                if lo == hi:
                    continue
                rows = broadcasts[lo:hi]
                counts[b] = rows.sum(axis=0, dtype=np.int32)
                index_sums[b] = (rows * row_index[lo:hi, None]).sum(axis=0)

        # --- lockstep peel: one success per still-active trial per round ----
        # Each round advances every trial that still has an eligible
        # single-broadcaster slot by exactly one success (its earliest such
        # slot), which is the sequential per-trial peel in lockstep.  A trial
        # without a candidate can never regain one (only its own removals
        # change its counts), so the active set shrinks monotonically and the
        # total work is O(total_successes × horizon), as in the per-trial
        # kernel.
        eligible = ~jammed
        position = np.ones(block_trials, dtype=np.int64)
        success_slot = np.zeros(total_rows, dtype=np.int64)
        active = np.arange(block_trials)
        while active.size:
            candidates = (
                (counts[active] == 1)
                & eligible[active]
                & (columns[None, :] >= position[active, None])
            )
            has = candidates.any(axis=1)
            if not has.any():
                break
            sub = np.nonzero(has)[0]
            trial_ids = active[sub]
            slot_ids = candidates[sub].argmax(axis=1)
            winner_rows = index_sums[trial_ids, slot_ids]
            success_slot[winner_rows] = slot_ids
            removal = (
                broadcasts[winner_rows] & (columns[None, :] > slot_ids[:, None])
            ).astype(np.int32)
            counts[trial_ids] -= removal
            index_sums[trial_ids] -= winner_rows[:, None] * removal
            position[trial_ids] = slot_ids + 1
            active = trial_ids

        # --- outcome prefix matrices over the full horizon ------------------
        cum_arrivals = np.cumsum(arrivals, axis=1)
        stacked = np.stack((eligible & (counts == 1), jammed))
        stacked[:, :, 0] = False  # index 0 is unused in every prefix array
        # int64 so the per-trial row slices handed to PrefixCounters at
        # emission are zero-copy views into this shared study matrix; exactly
        # the three emitted planes (successes, jammed, active) share the
        # base array, so the views pin no dead plane.
        prefix = np.empty((3, block_trials, horizon + 1), dtype=np.int64)
        np.cumsum(stacked, axis=2, out=prefix[:2])  # successes, jammed
        successes_before = np.zeros_like(cum_arrivals)
        successes_before[:, 1:] = prefix[0, :, :-1]
        active_full = (cum_arrivals - successes_before) > 0
        active_full[:, 0] = False
        np.cumsum(active_full, axis=1, out=prefix[2])
        # Silence is only ever needed as a scalar at each trial's stop slot,
        # so its cumulative counts live in a separate, short-lived array.
        silence = eligible & (counts == 0)
        silence[:, 0] = False
        silence_prefix = np.cumsum(silence, axis=1)

        simulated = self._early_stops(
            config, adversaries, cum_arrivals, prefix[0], horizon
        )
        silence_at = silence_prefix[np.arange(block_trials), simulated]

        # --- per-node statistics --------------------------------------------
        sim_per_row = np.repeat(simulated, nodes_per_trial)
        finished = (success_slot >= 1) & (success_slot <= sim_per_row)
        ends = np.where(finished, success_slot, sim_per_row)
        running_b = np.cumsum(broadcasts, axis=1, dtype=np.int32)
        broadcast_counts = np.take_along_axis(running_b, ends[:, None], axis=1)[
            :, 0
        ]
        del running_b, broadcasts
        # A trial's rows are in arrival order, so those that arrived by its
        # stop keep their node ids.
        arrived_rows = arrival_slots <= sim_per_row
        trial_of_row = np.repeat(np.arange(block_trials), nodes_per_trial)

        return emit_study_results(
            [adversary.describe() for adversary in adversaries],
            np.bincount(trial_of_row[arrived_rows], minlength=block_trials),
            arrival_slots[arrived_rows],
            np.where(finished, success_slot, 0)[arrived_rows],
            broadcast_counts[arrived_rows],
            simulated,
            prefix[1, np.arange(block_trials), simulated],
            silence_at,
            protocol_name,
            BatchedStudyKernel.name,
            # Zero-copy views into the shared block planes.  Every plane
            # is referenced by some trial's counters, so retention equals
            # the columnar study data (early stops may truncate a view
            # below its backing row, the one case nbytes under-counts).
            prefix=(prefix[2], cum_arrivals, prefix[1], prefix[0]),
        )

    @staticmethod
    def _resolve_broadcasts(
        uniforms: np.ndarray,
        arrival_slots: np.ndarray,
        probabilities: np.ndarray,
        horizon: int,
    ) -> np.ndarray:
        """``uniform < p(age)`` for every node row, aligned at its arrival.

        Rows are grouped by arrival slot (one comparison per group) when the
        arrival pattern is concentrated; scattered patterns use a single
        age-index gather instead.
        """
        distinct = np.unique(arrival_slots)
        if distinct.size == 1:
            a = int(distinct[0])
            broadcasts = np.zeros(uniforms.shape, dtype=bool)
            np.less(
                uniforms[:, a:],
                probabilities[1 : horizon - a + 2],
                out=broadcasts[:, a:],
            )
            return broadcasts
        if distinct.size <= 64:
            broadcasts = np.zeros(uniforms.shape, dtype=bool)
            for a in distinct.tolist():
                rows = np.nonzero(arrival_slots == a)[0]
                broadcasts[rows, a:] = (
                    uniforms[rows, a:] < probabilities[1 : horizon - a + 2]
                )
            return broadcasts
        ages = np.arange(horizon + 1)[None, :] - arrival_slots[:, None] + 1
        np.clip(ages, 0, horizon, out=ages)
        return uniforms < probabilities[ages]

    @staticmethod
    def _early_stops(
        config,
        adversaries: List[Adversary],
        cum_arrivals: np.ndarray,
        prefix_successes: np.ndarray,
        horizon: int,
    ) -> np.ndarray:
        return study_early_stops(
            config, adversaries, cum_arrivals, prefix_successes, horizon
        )
