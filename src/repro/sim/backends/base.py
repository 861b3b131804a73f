"""The slot-kernel contract shared by all simulation backends.

A :class:`SlotKernel` executes one complete simulation run — the slot loop of
the model — for the configuration captured in a :class:`KernelContext`.  The
contract every kernel must honor:

* **Semantics.**  Slots proceed in the canonical order (adversary action,
  arrivals, broadcast decisions, channel resolution, feedback, departure,
  bookkeeping) and the returned :class:`~repro.sim.results.SimulationResult`
  carries the same summary, prefix arrays and per-node statistics the
  reference kernel would produce.
* **Determinism.**  All randomness must be drawn from the context's two seed
  trees in the documented order: one generator from ``adversary_tree`` for the
  adversary, then one generator per node from ``node_tree`` — spawned in
  arrival order.  Two kernels given the same context must produce
  *bit-for-bit identical* results whenever both support the configuration.
* **Fallback.**  :meth:`SlotKernel.unsupported_reason` must be side-effect
  free (in particular it must not consume either seed tree), so the engine
  can probe kernels and fall back without perturbing the run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ...adversary.base import Adversary
from ...channel.multiple_access import MultipleAccessChannel
from ...protocols.base import ProtocolFactory
from ...rng import SeedTree, make_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine import SimulatorConfig
    from ..results import SimulationResult

__all__ = ["KernelContext", "SlotKernel", "age_probability_profile"]


def age_probability_profile(protocol_factory: ProtocolFactory, horizon: int):
    """Per-age broadcast probabilities of a vector-eligible protocol.

    Probes a fresh instance (arrival slot 1, throwaway generator, consuming
    nothing from any run's seed trees) and returns the float vector with
    index 0 forced to 0.0 — the invariant both array kernels rely on so that
    clipped pre-arrival ages can never beat a uniform.  Returns ``None`` when
    the protocol cannot provide a closed-form age profile, in which case the
    caller must fall back to a per-slot execution path.
    """
    probe = protocol_factory()
    probe.on_arrival(1, make_generator(0))
    probabilities = probe.age_probability_vector(horizon)
    if probabilities is None:
        return None
    probabilities = np.asarray(probabilities, dtype=float).copy()
    probabilities[0] = 0.0
    return probabilities


@dataclass
class KernelContext:
    """Everything a kernel needs to execute one run.

    The engine spawns ``adversary_tree`` and ``node_tree`` (in that order)
    from the simulator's root seed tree before selecting a kernel, so every
    kernel sees identical random streams regardless of how selection went.
    """

    protocol_factory: ProtocolFactory
    adversary: Adversary
    config: "SimulatorConfig"
    channel: MultipleAccessChannel
    adversary_tree: SeedTree
    node_tree: SeedTree
    seed: Optional[int]
    protocol_name: str


class SlotKernel(abc.ABC):
    """One strategy for executing the slot loop of a simulation run."""

    #: registry / provenance name ("reference", "vectorized", ...)
    name: str = "kernel"

    @abc.abstractmethod
    def run(self, context: KernelContext) -> "SimulationResult":
        """Execute the run and return its result."""

    def unsupported_reason(self, context: KernelContext) -> Optional[str]:
        """Why this kernel cannot execute ``context`` faithfully (``None``: it can).

        Must not mutate the context (and in particular must not consume its
        seed trees); the engine calls this while choosing a backend.
        """
        return None
