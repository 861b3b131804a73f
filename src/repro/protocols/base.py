"""Protocol interface.

A *protocol* is the algorithm one node runs from the moment it is injected
until its single message is successfully transmitted.  The simulator drives a
protocol instance through three hooks per slot:

1. :meth:`Protocol.on_arrival` — called once, at the beginning of the node's
   arrival slot, before the first broadcast decision.
2. :meth:`Protocol.wants_to_broadcast` — called at the beginning of every slot
   the node is active; returns whether the node broadcasts its message.
3. :meth:`Protocol.on_feedback` — called at the end of every slot the node is
   active, carrying the channel feedback every listener receives.  Per the
   model, nodes without collision detection only learn "success" (including
   the successful sender's identity via ``success_was_own``) or "no success".

A node halts automatically when its own message goes through; the simulator
stops calling its hooks afterwards.

Population-level API
--------------------

Protocols may additionally expose their *marginal broadcast probability*:

* :meth:`Protocol.broadcast_probability` reports, given the instance's current
  state, the probability that the node broadcasts in a global slot.  It is a
  diagnostic/analysis hook and is meaningful for every protocol that can
  compute it (including adaptive ones, where it is conditional on the current
  state).
* :attr:`Protocol.vector_eligible` declares the much stronger contract the
  vectorized simulation backend relies on: the node's broadcast decisions are
  independent Bernoulli draws whose probability depends *only* on the node's
  age (slots since arrival), all channel feedback is ignored until the node's
  own success, and exactly one ``rng.random()`` uniform is consumed per active
  slot.  Protocols satisfying it opt in by setting the flag and implementing
  :meth:`Protocol.broadcast_probability`; the vectorized kernel then
  reproduces the per-node reference execution bit for bit from batched draws.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..types import Feedback

__all__ = [
    "AgeProfileLockstepProgram",
    "CompiledProgramTables",
    "LockstepProgram",
    "OP_CJZ",
    "OP_SAWTOOTH",
    "OP_WINDOWED",
    "Protocol",
    "ProtocolFactory",
    "grow_flat_column",
    "make_factory",
]

#: Opcodes of the compiled lockstep interpreter
#: (:mod:`repro.sim.backends.compiled`).  Each names one protocol family the
#: fused slot loop knows how to advance; a program's
#: :meth:`LockstepProgram.compiled_tables` selects the family and supplies
#: its numeric parameters.
OP_CJZ = 1
OP_WINDOWED = 2
OP_SAWTOOTH = 3

#: Sentinel local index larger than any horizon, used by lockstep programs
#: for "no planned send" markers.
LOCKSTEP_SENTINEL = np.int64(1 << 62)


def grow_flat_column(
    column: np.ndarray,
    trials: int,
    old_capacity: int,
    new_capacity: int,
    fill=0,
) -> np.ndarray:
    """Re-layout a flat ``trials × capacity`` column for a larger capacity.

    Lockstep state columns address node ``n`` of trial ``t`` at flat row
    ``t * capacity + n``; growing the per-trial capacity therefore moves
    every trial's block.  Returns the new flat column with old values in
    place and ``fill`` elsewhere.
    """
    shape = (trials, new_capacity) + column.shape[1:]
    grown = np.full(shape, fill, dtype=column.dtype)
    grown[:, :old_capacity] = column.reshape(
        (trials, old_capacity) + column.shape[1:]
    )
    return grown.reshape((trials * new_capacity,) + column.shape[1:])


def lockstep_bounded_offsets(pool, rows: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """``Generator.integers(0, ranges[i] + 1)`` per row, mixed-width.

    Ranges below 32 bits go through the pool's vectorized buffered-Lemire
    path; the (practically unreachable) wider ranges replay numpy's 64-bit
    paths row by row.  Rows with range 0 consume nothing.
    """
    ranges = np.asarray(ranges, dtype=np.uint64)
    offsets = np.zeros(len(rows), dtype=np.int64)
    narrow = ranges < np.uint64(0xFFFFFFFF)
    if narrow.any():
        offsets[narrow] = pool.bounded_u32(rows[narrow], ranges[narrow]).astype(
            np.int64
        )
    if not narrow.all():
        for position in np.nonzero(~narrow)[0]:
            offsets[position] = pool.bounded_scalar(
                int(rows[position]), int(ranges[position])
            )
    return offsets


@dataclass(frozen=True)
class CompiledProgramTables:
    """Numeric lowering of one :class:`LockstepProgram` for the fused slot loop.

    The compiled study backend runs a single protocol-agnostic interpreter;
    this record is everything it needs to execute one protocol family:

    * ``opcode`` — which family (:data:`OP_CJZ`, :data:`OP_WINDOWED`,
      :data:`OP_SAWTOOTH`) the interpreter switches on;
    * ``int_state_width`` / ``float_state_width`` — per-node state columns
      the interpreter allocates (layout is fixed per opcode);
    * ``plan_width`` — width of the per-node send-plan matrix (CJZ backoff
      stages; 0 when the family keeps no plan);
    * ``prog_i`` / ``prog_f`` — scalar int64/float64 parameters;
    * ``stage_counts`` — per-stage send counts of ``(f/a)``-backoff
      (int64, empty when unused);
    * ``table_ctrl`` / ``table_data`` — ``h``-batch probability tables
      indexed by local slot (float64, empty when unused).

    All arrays are plain numpy so the record crosses the numba boundary
    unchanged; the tables are built with the same scalar calls the columnar
    program makes, keeping compiled comparisons float-identical.
    """

    opcode: int
    int_state_width: int
    float_state_width: int
    plan_width: int
    prog_i: np.ndarray
    prog_f: np.ndarray
    stage_counts: np.ndarray
    table_ctrl: np.ndarray
    table_data: np.ndarray

    @classmethod
    def build(
        cls,
        opcode: int,
        int_state_width: int,
        float_state_width: int,
        prog_i=(),
        prog_f=(),
        plan_width: int = 0,
        stage_counts=(),
        table_ctrl=(),
        table_data=(),
    ) -> "CompiledProgramTables":
        return cls(
            opcode=opcode,
            int_state_width=int_state_width,
            float_state_width=float_state_width,
            plan_width=plan_width,
            prog_i=np.asarray(prog_i, dtype=np.int64),
            prog_f=np.asarray(prog_f, dtype=np.float64),
            stage_counts=np.asarray(stage_counts, dtype=np.int64),
            table_ctrl=np.asarray(table_ctrl, dtype=np.float64),
            table_data=np.asarray(table_data, dtype=np.float64),
        )


class LockstepProgram(abc.ABC):
    """Columnar population-state executor of one protocol for the lockstep kernel.

    A program advances *every node of every trial* through one slot with
    array operations, mirroring the per-node reference execution exactly:

    * node state lives in flat numpy columns where node ``n`` of trial ``t``
      occupies row ``t * capacity + n``;
    * all randomness is drawn from the kernel's
      :class:`~repro.rng.NodeStreamPool`, whose row ``r`` replays node
      ``r``'s ``default_rng`` stream bit for bit — a program must consume
      draws in exactly the order and kind (``random()`` doubles, bounded
      integer batches) the per-node protocol instance would;
    * feedback is delivered once per slot with the same information the
      reference loop dispatches (did my trial's slot succeed, was the
      success my own, did I broadcast).

    Programs are created by :meth:`Protocol.lockstep_program` on a probe
    instance, which supplies the protocol parameters; they must not retain
    the probe's generator (probes never own one).
    """

    def compiled_tables(self, horizon: int) -> Optional[CompiledProgramTables]:
        """Numeric lowering for the fused compiled interpreter, or ``None``.

        Returning a :class:`CompiledProgramTables` opts the program into the
        ``lockstep-jit`` study backend, whose single interpreter advances the
        population from flat int64/float64 state instead of per-slot numpy
        dispatch.  The default — and the safe answer for any program whose
        semantics the interpreter's opcode families do not cover exactly —
        is ``None``, which keeps the study on the numpy lockstep kernel.
        """
        return None

    @abc.abstractmethod
    def bind(self, trials: int, capacity: int, pool, horizon: int) -> None:
        """Allocate state columns for ``trials × capacity`` rows."""

    @abc.abstractmethod
    def grow(self, trials: int, old_capacity: int, new_capacity: int) -> None:
        """Re-layout every state column for a larger per-trial capacity."""

    @abc.abstractmethod
    def arrive(self, rows: np.ndarray, slot: int) -> None:
        """Initialize the state of nodes arriving at ``slot`` (rows are seeded)."""

    @abc.abstractmethod
    def step(self, rows: np.ndarray, slot: int) -> np.ndarray:
        """Broadcast decisions for the active ``rows`` in ``slot``.

        Returns a bool array aligned with ``rows``.  Must consume exactly
        the randomness the per-node ``wants_to_broadcast`` calls would.
        """

    @abc.abstractmethod
    def feedback(
        self,
        slot: int,
        rows: np.ndarray,
        sends: np.ndarray,
        trial_success: np.ndarray,
        own_success: np.ndarray,
    ) -> None:
        """Deliver the slot's feedback to the active ``rows``.

        ``sends`` is the step's broadcast mask, ``trial_success`` marks rows
        whose trial's slot was a success and ``own_success`` marks the
        winners themselves (all aligned with ``rows``).  Mirrors
        ``Protocol.on_feedback`` under the no-collision-detection channel.
        """


class AgeProfileLockstepProgram(LockstepProgram):
    """Columnar state of the age-profile protocols: one arrival slot per node.

    Serves the :attr:`Protocol.vector_eligible` protocols, whose broadcast
    probability is a pure function of the node's age and which draw exactly
    one ``random()`` double per active slot while ignoring feedback.  The
    per-age probabilities are the table the batched and vectorized kernels
    use (:func:`~repro.sim.backends.base.age_probability_profile`), probed on
    copies of the program's prototype instance, so every ``uniform < p``
    comparison is float-identical to the per-node ``wants_to_broadcast``.
    """

    def __init__(self, prototype: "Protocol") -> None:
        self._prototype = prototype
        self._pool = None

    def bind(self, trials: int, capacity: int, pool, horizon: int) -> None:
        # Imported lazily: the simulation layer imports this module.
        from ..sim.backends.base import age_probability_profile

        self._pool = pool
        self._table = age_probability_profile(
            lambda: copy.copy(self._prototype), horizon
        )
        self._arrival = np.zeros(trials * capacity, dtype=np.int64)

    def grow(self, trials: int, old_capacity: int, new_capacity: int) -> None:
        self._arrival = grow_flat_column(
            self._arrival, trials, old_capacity, new_capacity
        )

    def arrive(self, rows: np.ndarray, slot: int) -> None:
        self._arrival[rows] = slot

    def step(self, rows: np.ndarray, slot: int) -> np.ndarray:
        return self._pool.doubles(rows) < self._table[slot - self._arrival[rows] + 1]

    def feedback(self, slot, rows, sends, trial_success, own_success) -> None:
        return None


class Protocol(abc.ABC):
    """Per-node contention-resolution algorithm."""

    #: human-readable protocol name used in reports
    name: str = "protocol"

    #: registry key of this protocol in :data:`repro.spec.PROTOCOLS`, or
    #: ``None`` for protocols that cannot be described declaratively (e.g.
    #: ones constructed around arbitrary callables).
    spec_kind: Optional[str] = None

    #: True only when broadcast decisions are independent Bernoulli draws whose
    #: probability is a pure function of the node's age, feedback is ignored,
    #: and exactly one uniform is drawn per active slot (see module docstring).
    #: Opting in makes the protocol runnable on the vectorized slot kernel.
    vector_eligible: bool = False

    @abc.abstractmethod
    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        """Initialize the node's state; ``slot`` is the global arrival slot."""

    @abc.abstractmethod
    def wants_to_broadcast(self, slot: int) -> bool:
        """Return ``True`` if the node broadcasts its message in ``slot``."""

    @abc.abstractmethod
    def on_feedback(
        self,
        slot: int,
        feedback: Feedback,
        broadcast: bool,
        success_was_own: bool,
    ) -> None:
        """Consume the slot's channel feedback.

        Parameters
        ----------
        slot:
            Global slot index that just ended.
        feedback:
            Channel feedback heard by every listener.
        broadcast:
            Whether this node itself broadcast in the slot.
        success_was_own:
            Whether the success (if any) was this node's own message.  When
            true the node has left the system; implementations may ignore the
            call.
        """

    def broadcast_probability(self, slot: int) -> Optional[float]:
        """Marginal probability of broadcasting in global ``slot``.

        The answer is conditional on the instance's current state (for
        adaptive protocols it changes as feedback arrives).  Returns ``None``
        when the protocol cannot compute it — the default.
        """
        return None

    def lockstep_program(self) -> Optional["LockstepProgram"]:
        """Columnar state program for the lockstep study kernel, or ``None``.

        Protocols that can express their per-node state as numpy columns
        (phases, anchors, windows, arrival slots as int/float arrays) return
        a fresh :class:`LockstepProgram` bound to this instance's
        parameters — the vector-eligible ones share
        :class:`AgeProfileLockstepProgram`; the default — and the safe
        answer for any subclass that changes behaviour — is ``None``, which
        keeps the protocol on the per-trial reference path.
        """
        return None

    def age_probability_vector(self, max_age: int) -> Optional[np.ndarray]:
        """Vector ``p`` with ``p[k]`` = broadcast probability in the node's
        ``k``-th active slot (1-based; index 0 unused).

        Only meaningful for :attr:`vector_eligible` protocols, whose
        probability is a pure function of age.  Callers must have invoked
        :meth:`on_arrival` with arrival slot 1 first, so that global slot
        indices coincide with ages.  Returns ``None`` for ineligible
        protocols.  Subclasses with a closed form should override this to
        avoid the per-age Python loop.
        """
        if not self.vector_eligible:
            return None
        probabilities = np.zeros(max_age + 1, dtype=float)
        for age in range(1, max_age + 1):
            p = self.broadcast_probability(age)
            if p is None:
                return None
            probabilities[age] = p
        return probabilities

    # ------------------------------------------------------------ spec layer

    def spec_params(self) -> dict:
        """JSON-serializable constructor parameters of this instance.

        Together with :attr:`spec_kind` this must reconstruct an instance
        that behaves identically (same RNG consumption, same decisions) —
        the round-trip contract ``from_spec(to_spec())`` relies on it.
        """
        return {}

    def to_spec(self):
        """The declarative :class:`~repro.spec.ProtocolSpec` for this instance."""
        from ..spec.protocol import ProtocolSpec

        if self.spec_kind is None:
            from ..errors import SpecError

            raise SpecError(
                f"protocol {self.name!r} has no registered spec kind and "
                "cannot be serialized"
            )
        return ProtocolSpec(kind=self.spec_kind, params=self.spec_params())

    @staticmethod
    def from_spec(spec) -> "Protocol":
        """Build a fresh instance from a :class:`~repro.spec.ProtocolSpec`.

        Inverse of :meth:`to_spec` up to instance identity: the result
        behaves identically (same constructor parameters, same RNG
        consumption).  Accepts a spec object or its ``to_dict`` mapping.
        """
        from ..spec.protocol import ProtocolSpec

        if not isinstance(spec, ProtocolSpec):
            spec = ProtocolSpec.from_dict(spec)
        return spec.build()()


ProtocolFactory = Callable[[], Protocol]


def make_factory(cls: type, /, *args, **kwargs) -> ProtocolFactory:
    """Build a factory producing fresh protocol instances for each new node."""

    def _factory() -> Protocol:
        return cls(*args, **kwargs)

    _factory.protocol_name = getattr(cls, "name", cls.__name__)  # type: ignore[attr-defined]
    return _factory
