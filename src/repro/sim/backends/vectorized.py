"""The vectorized slot kernel: whole-horizon array resolution with numpy.

Eligibility
-----------

The kernel exploits the structure most classical protocols share: while a node
is active it broadcasts independently each slot with a probability that
depends only on its *age* (slots since arrival), ignoring all feedback, and
consumes exactly one uniform per active slot (the
:attr:`~repro.protocols.base.Protocol.vector_eligible` contract).  Because
decisions never depend on the channel, the entire broadcast matrix can be
drawn up front and slots resolved by array arithmetic; only the (rare)
successes need sequential treatment, since a success removes the winner's
future broadcasts.

The adversary must be oblivious and precompilable
(:meth:`~repro.adversary.base.Adversary.precompile`), so its whole-horizon
arrival/jamming arrays can be pulled before the first slot.

Bit-for-bit reproducibility
---------------------------

Per-node generators are spawned from the context's node seed tree in arrival
order, exactly as the reference kernel does, and a batched
``Generator.random(n)`` yields the same stream as ``n`` sequential
``Generator.random()`` calls.  The kernel therefore reproduces the reference
execution *exactly* — summaries, prefix arrays, node statistics and traces are
identical, which the property suite enforces.

When the configuration is not eligible (adaptive adversary, feedback-coupled
protocol) the engine falls back to the reference kernel; when only the
broadcast matrix is too large for memory, this kernel replays its precompiled
schedule through the reference slot loop instead.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ...adversary.base import PrecompiledSchedule
from ...channel.multiple_access import MultipleAccessChannel
from ...errors import ConfigurationError
from ...types import AdversaryAction, SimulationSummary, SlotOutcome, SlotRecord
from ..events import EventTrace
from ..results import NodeColumns, PrefixCounters, SimulationResult
from .base import KernelContext, SlotKernel, age_probability_profile
from .reference import run_slot_loop

__all__ = ["VectorizedKernel"]

#: Broadcast matrices larger than this (bytes) trigger the replay fallback.
_MAX_MATRIX_BYTES = 1 << 28

#: Element cap for the fully dense temporaries (float64 uniforms, int32
#: cumulative sums).  Below it the kernel resolves broadcasts and per-node
#: counts with whole-matrix operations; above it (still within the replay
#: guard) it degrades to the equivalent row-wise forms to bound memory.
_MAX_DENSE_ELEMENTS = 1 << 23


class VectorizedKernel(SlotKernel):
    """Batched-RNG array kernel for vector-eligible protocols."""

    name = "vectorized"

    def unsupported_reason(self, context: KernelContext) -> Optional[str]:
        probe = context.protocol_factory()
        if not probe.vector_eligible:
            return (
                f"protocol {probe.name!r} is not vector-eligible "
                "(its broadcast decisions depend on feedback or are not "
                "independent per-slot Bernoulli draws)"
            )
        if not context.adversary.precompilable:
            return (
                f"adversary {context.adversary.describe()!r} is adaptive and "
                "cannot be precompiled into a whole-horizon schedule"
            )
        if type(context.channel) is not MultipleAccessChannel:
            return (
                f"channel {type(context.channel).__name__} may override slot "
                "resolution semantics"
            )
        return None

    def run(self, context: KernelContext) -> SimulationResult:
        config = context.config
        adversary = context.adversary
        horizon = config.horizon

        start_time = time.perf_counter()
        adversary_rng = context.adversary_tree.generator()
        adversary.setup(adversary_rng, horizon)
        schedule = adversary.precompile(horizon)
        if schedule is None:
            # The adversary claimed precompilability but produced no schedule;
            # its RNG was consumed only by setup(), so the live loop is still
            # bit-identical to the reference kernel.
            return run_slot_loop(
                context, adversary.action_for_slot, backend_name="reference"
            )

        arrivals = schedule.arrivals
        jammed = schedule.jammed

        cum_arrivals = np.cumsum(arrivals)
        over = np.nonzero(cum_arrivals > config.max_nodes)[0]
        if over.size:
            raise ConfigurationError(
                f"adversary exceeded max_nodes={config.max_nodes} at slot {int(over[0])}"
            )

        total_nodes = int(cum_arrivals[horizon])
        if total_nodes * (horizon + 1) > _MAX_MATRIX_BYTES:
            return self._replay_fallback(context, schedule)

        probabilities = age_probability_profile(context.protocol_factory, horizon)
        if probabilities is None:
            return self._replay_fallback(context, schedule)

        # --- broadcast matrix: one row per node, one column per slot -------
        # Seed children are spawned in bulk (one SeedSequence.spawn call) and
        # each node's uniforms are drawn as one batched row, which reproduces
        # the reference kernel's sequential child()/random() streams exactly.
        arrival_slots = np.repeat(np.arange(horizon + 1), arrivals)
        n = total_nodes
        dense = n * (horizon + 1) <= _MAX_DENSE_ELEMENTS
        children = context.node_tree.children(n)
        if dense:
            uniforms = np.zeros((n, horizon + 1))
            for i, child in enumerate(children):
                a = int(arrival_slots[i])
                uniforms[i, a:] = child.generator().random(horizon - a + 1)
            ages = np.arange(horizon + 1)[None, :] - arrival_slots[:, None] + 1
            np.clip(ages, 0, horizon, out=ages)
            # probabilities[0] == 0.0, so clipped pre-arrival ages (age <= 0)
            # can never beat a uniform and the rows need no explicit mask.
            broadcasts = uniforms < probabilities[ages]
            del uniforms, ages
        else:
            broadcasts = np.zeros((n, horizon + 1), dtype=bool)
            for i, child in enumerate(children):
                a = int(arrival_slots[i])
                draws = child.generator().random(horizon - a + 1)
                broadcasts[i, a:] = draws < probabilities[1 : horizon - a + 2]

        # --- forward pass: peel off successes in slot order ----------------
        counts = broadcasts.sum(axis=0, dtype=np.int64)
        eligible = ~jammed
        alive = np.ones(n, dtype=bool)
        success_slot = np.zeros(n, dtype=np.int64)
        position = 1
        while position <= horizon:
            candidates = np.nonzero(
                (counts[position:] == 1) & eligible[position:]
            )[0]
            if candidates.size == 0:
                break
            slot = position + int(candidates[0])
            winner = int(np.nonzero(broadcasts[:, slot] & alive)[0][0])
            success_slot[winner] = slot
            alive[winner] = False
            if slot < horizon:
                counts[slot + 1 :] -= broadcasts[winner, slot + 1 :]
            position = slot + 1

        # --- early stop (stop_when_drained) ---------------------------------
        sorted_successes = np.sort(success_slot[success_slot > 0])
        successes_up_to = np.searchsorted(
            sorted_successes, np.arange(horizon + 1), side="right"
        )
        simulated = horizon
        if config.stop_when_drained:
            occupancy_after = cum_arrivals - successes_up_to
            stop_candidates = np.nonzero(
                (occupancy_after == 0) & (cum_arrivals > 0)
            )[0]
            for t in stop_candidates:
                t = int(t)
                if t >= 1 and adversary.arrivals_exhausted(t):
                    simulated = t
                    break

        finished = (success_slot >= 1) & (success_slot <= simulated)

        # --- per-slot outcome masks over the simulated range ----------------
        jam_t = jammed[1 : simulated + 1]
        counts_t = counts[1 : simulated + 1]
        success_t = (~jam_t) & (counts_t == 1)
        silence_t = (~jam_t) & (counts_t == 0)
        collision_t = ~success_t & ~silence_t
        successes_before = np.concatenate(([0], successes_up_to[:-1]))
        occupancy_during = cum_arrivals - successes_before
        active_t = occupancy_during[1 : simulated + 1] > 0

        # --- per-node statistics --------------------------------------------
        exists = arrival_slots <= simulated
        ends = np.where(finished, success_slot, simulated)
        if dense:
            running = np.cumsum(broadcasts, axis=1, dtype=np.int32)
            broadcast_counts = np.take_along_axis(
                running, ends[:, None], axis=1
            )[:, 0].astype(np.int64)
            del running
        else:
            broadcast_counts = np.zeros(n, dtype=np.int64)
            for i in range(n):
                broadcast_counts[i] = int(broadcasts[i, : int(ends[i]) + 1].sum())

        # Nodes are numbered in arrival order, so the existing ones keep
        # their ids.
        node_stats = NodeColumns(
            arrival_slots[exists],
            np.where(finished, success_slot, 0)[exists],
            broadcast_counts[exists],
        )

        summary = SimulationSummary(
            total_slots=simulated,
            active_slots=int(active_t.sum()),
            successes=int(success_t.sum()),
            collisions=int(collision_t.sum()),
            silent_slots=int(silence_t.sum()),
            jammed_slots=int(jam_t.sum()),
            arrivals=int(cum_arrivals[simulated]),
            total_broadcasts=int(broadcast_counts[exists].sum()),
        )

        # Columns go straight into the result record — no .tolist() round trip.
        zero = np.zeros(1, dtype=np.int64)
        counters = PrefixCounters(
            active=np.concatenate((zero, np.cumsum(active_t, dtype=np.int64))),
            arrivals=np.asarray(cum_arrivals[: simulated + 1], dtype=np.int64),
            jammed=np.concatenate((zero, np.cumsum(jam_t, dtype=np.int64))),
            successes=np.concatenate((zero, np.cumsum(success_t, dtype=np.int64))),
        )

        trace: Optional[EventTrace] = None
        if config.keep_trace:
            trace = self._emit_records(
                broadcasts,
                jammed,
                counts,
                arrivals,
                occupancy_during,
                success_slot,
                finished,
                simulated,
            )

        wall_time = time.perf_counter() - start_time
        return SimulationResult(
            summary=summary,
            node_stats=node_stats,
            counters=counters,
            protocol_name=context.protocol_name,
            adversary_name=adversary.describe(),
            horizon=simulated,
            seed=context.seed,
            trace=trace,
            backend=self.name,
            wall_time_seconds=wall_time,
        )

    # ------------------------------------------------------------------ utils

    def _replay_fallback(
        self, context: KernelContext, schedule: PrecompiledSchedule
    ) -> SimulationResult:
        """Run the reference loop against the already-precompiled schedule.

        The adversary's RNG streams were consumed by ``precompile``; replaying
        the materialized arrays (instead of calling ``action_for_slot`` again)
        keeps the run bit-identical to a reference execution.
        """
        arrivals = schedule.arrivals
        jammed = schedule.jammed

        def replay(slot: int) -> AdversaryAction:
            return AdversaryAction(
                arrivals=int(arrivals[slot]), jam=bool(jammed[slot])
            )

        return run_slot_loop(context, replay, backend_name="reference")

    @staticmethod
    def _emit_records(
        broadcasts: np.ndarray,
        jammed: np.ndarray,
        counts: np.ndarray,
        arrivals: np.ndarray,
        occupancy_during: np.ndarray,
        success_slot: np.ndarray,
        finished: np.ndarray,
        simulated: int,
    ) -> EventTrace:
        """Materialize the per-slot records of the retained trace."""
        trace = EventTrace()
        winner_by_slot = np.full(simulated + 1, -1, dtype=np.int64)
        finished_ids = np.nonzero(finished)[0]
        winner_by_slot[success_slot[finished_ids]] = finished_ids
        alive = np.ones(broadcasts.shape[0], dtype=bool)
        for slot in range(1, simulated + 1):
            ids = np.nonzero(broadcasts[:, slot] & alive)[0]
            jam = bool(jammed[slot])
            winner = int(winner_by_slot[slot])
            if jam:
                outcome = SlotOutcome.COLLISION
            elif counts[slot] == 1:
                outcome = SlotOutcome.SUCCESS
            elif counts[slot] == 0:
                outcome = SlotOutcome.SILENCE
            else:
                outcome = SlotOutcome.COLLISION
            record = SlotRecord(
                slot=slot,
                broadcasters=tuple(int(i) for i in ids),
                jammed=jam,
                outcome=outcome,
                successful_node=winner if winner >= 0 else None,
                active_nodes=int(occupancy_during[slot]),
                arrivals=int(arrivals[slot]),
            )
            trace.append(record)
            if winner >= 0:
                alive[winner] = False
        return trace
