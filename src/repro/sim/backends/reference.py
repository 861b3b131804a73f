"""The reference slot kernel: the per-node, per-slot Python loop.

This is the semantics-defining implementation — every other backend is
validated against it.  The loop body is exposed as :func:`run_slot_loop` so
the vectorized kernel can reuse it verbatim when it has already precompiled
the adversary's schedule but must fall back (e.g. because the broadcast
matrix would not fit in memory).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from ...errors import ConfigurationError
from ...types import (
    AdversaryAction,
    NodeStats,
    SimulationSummary,
    SlotObservation,
    SlotRecord,
)
from ..events import EventTrace
from ..node import Node
from ..results import PrefixCounters, SimulationResult
from .base import KernelContext, SlotKernel

__all__ = ["ReferenceKernel", "run_slot_loop"]


def run_slot_loop(
    context: KernelContext,
    action_for_slot: Callable[[int], AdversaryAction],
    backend_name: str = "reference",
) -> SimulationResult:
    """Execute the canonical per-node slot loop.

    ``action_for_slot`` supplies the adversary's decision for each slot —
    either the live adversary method or a replay of a precompiled schedule.
    The adversary must already be set up; observations are still delivered to
    it each slot.
    """
    config = context.config
    adversary = context.adversary
    channel = context.channel
    node_seed_tree = context.node_tree

    start_time = time.perf_counter()

    nodes: Dict[int, Node] = {}
    active_nodes: List[Node] = []
    summary = SimulationSummary()
    trace = EventTrace() if config.keep_trace else None

    prefix_active = [0]
    prefix_arrivals = [0]
    prefix_jammed = [0]
    prefix_successes = [0]

    next_node_id = 0
    slots_simulated = 0

    for slot in range(1, config.horizon + 1):
        slots_simulated = slot
        action = action_for_slot(slot)
        if action.arrivals and next_node_id + action.arrivals > config.max_nodes:
            raise ConfigurationError(
                f"adversary exceeded max_nodes={config.max_nodes} at slot {slot}"
            )

        # 2. arrivals
        for _ in range(action.arrivals):
            node = Node(
                node_id=next_node_id,
                arrival_slot=slot,
                protocol=context.protocol_factory(),
                rng=node_seed_tree.child().generator(),
            )
            nodes[next_node_id] = node
            active_nodes.append(node)
            next_node_id += 1

        # 3. broadcast decisions
        broadcasters = [
            node.node_id for node in active_nodes if node.decide_broadcast(slot)
        ]

        # 4. channel resolution
        outcome, winner, feedback = channel.resolve(broadcasters, jammed=action.jam)

        # 5./6. feedback dispatch; the winner deactivates itself
        broadcaster_set = set(broadcasters)
        for node in active_nodes:
            node.deliver_feedback(
                slot, feedback, node.node_id in broadcaster_set, winner
            )
        if winner is not None:
            active_nodes = [n for n in active_nodes if n.active]

        # 7. bookkeeping
        record = SlotRecord(
            slot=slot,
            broadcasters=tuple(broadcasters),
            jammed=action.jam,
            outcome=outcome,
            successful_node=winner,
            active_nodes=len(active_nodes) + (1 if winner is not None else 0),
            arrivals=action.arrivals,
        )
        summary.record(record)
        if trace is not None:
            trace.append(record)

        prefix_active.append(summary.active_slots)
        prefix_arrivals.append(summary.arrivals)
        prefix_jammed.append(summary.jammed_slots)
        prefix_successes.append(summary.successes)

        observation = SlotObservation(slot=slot, feedback=feedback, message_node=winner)
        adversary.observe(observation)

        if (
            config.stop_when_drained
            and not active_nodes
            and summary.arrivals > 0
            and adversary.arrivals_exhausted(slot)
        ):
            break

    node_stats: Dict[int, NodeStats] = {
        node_id: node.stats for node_id, node in nodes.items()
    }
    wall_time = time.perf_counter() - start_time
    return SimulationResult(
        summary=summary,
        node_stats=node_stats,
        counters=PrefixCounters.from_lists(
            prefix_active, prefix_arrivals, prefix_jammed, prefix_successes
        ),
        protocol_name=context.protocol_name,
        adversary_name=adversary.describe(),
        horizon=slots_simulated,
        seed=context.seed,
        trace=trace,
        backend=backend_name,
        wall_time_seconds=wall_time,
    )


class ReferenceKernel(SlotKernel):
    """Per-node, per-slot loop — supports every configuration."""

    name = "reference"

    def run(self, context: KernelContext) -> SimulationResult:
        adversary_rng = context.adversary_tree.generator()
        context.adversary.setup(adversary_rng, context.config.horizon)
        return run_slot_loop(
            context, context.adversary.action_for_slot, backend_name=self.name
        )
