"""Slotted ALOHA baseline: broadcast with a fixed probability every slot."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..types import Feedback
from .base import AgeProfileLockstepProgram, LockstepProgram, Protocol

__all__ = ["SlottedAloha"]


class SlottedAloha(Protocol):
    """Broadcast with constant probability ``p`` in every slot while active.

    The simplest random-access protocol.  It is optimal when the (known)
    number of contenders is ``1/p`` and degrades badly otherwise; it serves as
    the naive lower baseline in the comparison experiments.
    """

    name = "slotted-aloha"
    vector_eligible = True
    spec_kind = "slotted-aloha"

    def __init__(self, probability: float = 0.1) -> None:
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")
        self._p = probability
        self._rng: Optional[np.random.Generator] = None
        self.name = f"slotted-aloha(p={probability:g})"

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        self._rng = rng

    def wants_to_broadcast(self, slot: int) -> bool:
        assert self._rng is not None
        return bool(self._rng.random() < self._p)

    def on_feedback(
        self, slot: int, feedback: Feedback, broadcast: bool, success_was_own: bool
    ) -> None:
        return None

    def broadcast_probability(self, slot: int) -> float:
        return self._p

    def age_probability_vector(self, max_age: int) -> np.ndarray:
        probabilities = np.full(max_age + 1, self._p)
        probabilities[0] = 0.0
        return probabilities

    def spec_params(self) -> dict:
        return {"probability": self._p}

    def lockstep_program(self) -> Optional[LockstepProgram]:
        if type(self) is not SlottedAloha:
            return None
        return AgeProfileLockstepProgram(self)
