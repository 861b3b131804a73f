"""Non-adaptive (pre-defined probability sequence) protocols — Theorem 4.2 targets.

A protocol is *non-adaptive* in the sense of Theorem 4.2 if, before hearing any
success, it broadcasts in its ``i``-th slot with a pre-defined probability
``a_i`` that does not depend on its own past broadcast decisions or on any
feedback.  The theorem shows such protocols cannot achieve the optimal
trade-off once jamming is present; experiment E7 demonstrates this empirically
against :class:`~repro.adversary.lower_bound.NonAdaptiveKillerAdversary`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigurationError
from ..types import Feedback
from .base import AgeProfileLockstepProgram, LockstepProgram, Protocol

__all__ = ["FixedProbabilityProtocol", "LogUniformFixedProtocol"]


class FixedProbabilityProtocol(Protocol):
    """Broadcast with probability ``sequence(i)`` in the ``i``-th slot since arrival."""

    name = "fixed-probability"
    vector_eligible = True

    def __init__(self, sequence: Callable[[int], float], label: Optional[str] = None) -> None:
        self._sequence = sequence
        self._rng: Optional[np.random.Generator] = None
        self._arrival_slot = 0
        if label:
            self.name = label

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        self._rng = rng
        self._arrival_slot = slot

    def probability(self, i: int) -> float:
        """The pre-defined probability for the node's ``i``-th slot (1-based)."""
        if i < 1:
            raise ConfigurationError("slot index must be >= 1")
        p = float(self._sequence(i))
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"sequence produced invalid probability {p}")
        return p

    def wants_to_broadcast(self, slot: int) -> bool:
        assert self._rng is not None
        i = slot - self._arrival_slot + 1
        return bool(self._rng.random() < self.probability(i))

    def on_feedback(
        self, slot: int, feedback: Feedback, broadcast: bool, success_was_own: bool
    ) -> None:
        return None

    def broadcast_probability(self, slot: int) -> float:
        return self.probability(slot - self._arrival_slot + 1)

    def lockstep_program(self) -> Optional[LockstepProgram]:
        if type(self) not in (FixedProbabilityProtocol, LogUniformFixedProtocol):
            return None
        return AgeProfileLockstepProgram(self)


class LogUniformFixedProtocol(FixedProbabilityProtocol):
    """The natural "slow decay" non-adaptive sequence ``a_i = min(1, c·log(i+1)/(i+1))``.

    This is the strongest simple non-adaptive contender: it keeps the sending
    probability as high as the arrival budget allows.  Theorem 4.2 says even
    this cannot reach the adaptive trade-off under jamming.
    """

    name = "log-uniform-fixed"
    spec_kind = "log-uniform-fixed"

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError("scale must be positive")

        def _sequence(i: int) -> float:
            return min(1.0, scale * math.log2(i + 1) / (i + 1))

        super().__init__(_sequence, label=self.name)
        self._scale = scale

    def spec_params(self) -> dict:
        return {"scale": self._scale}
