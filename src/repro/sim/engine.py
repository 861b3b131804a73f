"""The slot-synchronous simulation engine.

Each slot proceeds in the order the model prescribes:

1. the adversary picks its action (how many nodes to inject, whether to jam);
2. newly injected nodes join the system and initialize their protocols;
3. every active node decides whether to broadcast;
4. the channel resolves the slot (success / silence / collision, jamming wins);
5. feedback is dispatched to all active nodes and to the adversary;
6. a successful node leaves the system immediately;
7. metrics and (optionally) the trace are updated.

Slot kernels
------------

The loop itself is executed by a pluggable *slot kernel*
(:mod:`repro.sim.backends`).  The :class:`Simulator` only assembles the run
configuration, spawns the two seed trees every kernel must draw from (one
generator for the adversary, then one generator per node in arrival order) and
delegates to the per-trial kernel its backend names in
:data:`~repro.sim.backends.LADDERS`:

* ``backend="reference"`` and ``backend="auto"`` (default) — the per-node
  Python loop above, verbatim; the semantics-defining implementation that
  supports every configuration.
* ``backend="vectorized"`` — numpy array resolution of whole horizons for
  protocols that opt into the
  :attr:`~repro.protocols.base.Protocol.vector_eligible` contract
  (independent per-slot Bernoulli decisions, feedback-oblivious) against
  precompilable (oblivious) adversaries.  Bit-for-bit identical to the
  reference kernel where it applies.

The study kernels exist one level up and are selected through
:func:`repro.sim.run_trials` / :class:`repro.sim.TrialRunner` (a single
:class:`Simulator` rejects their names): ``"lockstep-jit"`` and
``"lockstep"`` advance all trials slot by slot in array lockstep — the fast
path for feedback-driven protocols (the paper's own algorithm included) and
adaptive adversaries, which a study's ``auto`` tries before it runs each
trial on ``reference`` — and ``"batched-study"`` executes a whole
multi-trial study in one array pass.

Per-slot records (``SlotRecord``) are retained with ``keep_trace=True``.
Study-level metrics come from the columnar
:class:`~repro.metrics.MetricPipeline`, which consumes each trial's
:class:`~repro.sim.results.PrefixCounters` after the fact and runs on every
backend (see :class:`repro.sim.TrialRunner`).

Every kernel must honor the contract documented in
:mod:`repro.sim.backends.base`: canonical slot ordering, the documented seed
tree discipline, and results indistinguishable from the reference kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..adversary.base import Adversary
from ..channel.multiple_access import MultipleAccessChannel
from ..errors import ConfigurationError
from ..protocols.base import ProtocolFactory
from ..rng import SeedLike, SeedTree
from .backends import AUTO_BACKEND, LADDERS, KernelContext
from .results import SimulationResult

__all__ = ["SimulatorConfig", "Simulator"]


@dataclass
class SimulatorConfig:
    """Configuration of a single simulation run.

    Attributes
    ----------
    horizon:
        Number of slots to simulate.
    keep_trace:
        Whether to retain the full per-slot trace (memory ~ horizon).
    stop_when_drained:
        If true, the run ends early once every arrived node has succeeded and
        the adversary cannot inject more (used by batch experiments that only
        care about completion time); the prefix arrays are still filled up to
        the stopping slot.  "Cannot inject more" is answered by
        :meth:`~repro.adversary.base.Adversary.arrivals_exhausted`, which is
        conservatively False for open-ended arrival processes.
    max_nodes:
        Safety valve against runaway adversaries.
    """

    horizon: int
    keep_trace: bool = False
    stop_when_drained: bool = False
    max_nodes: int = 1_000_000

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.max_nodes < 1:
            raise ConfigurationError("max_nodes must be >= 1")


class Simulator:
    """Drives one protocol population against one adversary on one channel."""

    def __init__(
        self,
        protocol_factory: ProtocolFactory,
        adversary: Adversary,
        config: SimulatorConfig,
        channel: Optional[MultipleAccessChannel] = None,
        seed: SeedLike = None,
        backend: str = AUTO_BACKEND,
    ) -> None:
        if backend not in LADDERS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; available: {', '.join(LADDERS)}"
            )
        kernel_class = LADDERS[backend][-1]
        if backend not in (AUTO_BACKEND, kernel_class.name):
            raise ConfigurationError(
                f"backend {backend!r} executes whole trial studies; use "
                "repro.sim.run_trials / TrialRunner instead of a single Simulator"
            )
        self._factory = protocol_factory
        self._adversary = adversary
        self._config = config
        self._channel = channel or MultipleAccessChannel()
        self._seed_tree = SeedTree(seed)
        self._seed = seed if isinstance(seed, int) else None
        self._backend = backend
        self._kernel_class = kernel_class

    @property
    def config(self) -> SimulatorConfig:
        return self._config

    @property
    def channel(self) -> MultipleAccessChannel:
        return self._channel

    @property
    def backend(self) -> str:
        """The requested backend (``"auto"`` runs ``"reference"``)."""
        return self._backend

    def run(self) -> SimulationResult:
        """Execute the run and return its result."""
        context = KernelContext(
            protocol_factory=self._factory,
            adversary=self._adversary,
            config=self._config,
            channel=self._channel,
            adversary_tree=self._seed_tree.child(),
            node_tree=self._seed_tree.child(),
            seed=self._seed,
            protocol_name=getattr(self._factory, "protocol_name", None) or "protocol",
        )
        kernel = self._kernel_class()
        reason = kernel.unsupported_reason(context)
        if reason is not None:
            raise ConfigurationError(
                f"backend {self._backend!r} unavailable: {reason}"
            )
        return kernel.run(context)
