"""Adversary strategies from the paper's impossibility proofs.

Two strategies are provided:

* :class:`LowerBoundAdversary` — the strategy of Lemma 4.1 / Theorem 1.3: it
  injects one node in the first slot, jams the first ``t/(4 g(t))`` slots plus
  the last slot, and jams another ``t/(4 g(t))`` slots chosen uniformly at
  random from the remainder of the horizon.  Against protocols whose sending
  probability decays too fast (because they over-reacted to the front-loaded
  jamming) this delays the first success far beyond what the optimal trade-off
  allows.

* :class:`NonAdaptiveKillerAdversary` — the strategy of Theorem 4.2 against
  protocols with a *pre-defined* sending-probability sequence: jam the first
  ``t/(4 g(t))`` slots and the last slot, inject two nodes in the first slot
  and a crowd of ``t/(4 f(t))`` nodes in the last slot.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from ..errors import ConfigurationError
from ..functions import RateFunction
from ..types import AdversaryAction
from .base import Adversary, PrecompiledSchedule

__all__ = ["LowerBoundAdversary", "NonAdaptiveKillerAdversary"]


class LowerBoundAdversary(Adversary):
    """Adversary of Lemma 4.1 / Theorem 1.3 (front-loaded + random jamming)."""

    name = "lower-bound"
    spec_kind = "lower-bound"
    precompilable = True  # all randomness is realized in setup()

    def __init__(
        self,
        horizon: int,
        g: RateFunction,
        initial_nodes: int = 1,
        jam_constant: float = 4.0,
    ) -> None:
        if horizon < 4:
            raise ConfigurationError("horizon must be at least 4")
        if initial_nodes < 1:
            raise ConfigurationError("initial_nodes must be >= 1")
        if jam_constant <= 0:
            raise ConfigurationError("jam_constant must be positive")
        self._horizon = horizon
        self._g = g
        self._initial_nodes = initial_nodes
        self._jam_constant = jam_constant
        self._front_jam = 0
        self._random_jam: Set[int] = set()
        self.name = f"lower-bound(g={g.name})"

    def setup(self, rng: np.random.Generator, horizon: Optional[int] = None) -> None:
        t = self._horizon
        budget = max(1, int(t / (self._jam_constant * self._g(float(t)))))
        self._front_jam = min(budget, t - 1)
        tail_slots = np.arange(self._front_jam + 1, t + 1)
        extra = min(budget, len(tail_slots))
        if extra > 0:
            chosen = rng.choice(tail_slots, size=extra, replace=False)
            self._random_jam = {int(s) for s in chosen}
        else:
            self._random_jam = set()
        self._random_jam.add(t)

    def action_for_slot(self, slot: int) -> AdversaryAction:
        arrivals = self._initial_nodes if slot == 1 else 0
        jam = slot <= self._front_jam or slot in self._random_jam
        return AdversaryAction(arrivals=arrivals, jam=jam)

    def precompile(self, horizon: int) -> PrecompiledSchedule:
        arrivals = np.zeros(horizon + 1, dtype=np.int64)
        jammed = np.zeros(horizon + 1, dtype=bool)
        arrivals[1:2] = self._initial_nodes
        jammed[1 : self._front_jam + 1] = True
        random = np.fromiter(self._random_jam, dtype=np.int64)
        jammed[random[random <= horizon]] = True
        return PrecompiledSchedule(arrivals=arrivals, jammed=jammed)

    def arrivals_exhausted(self, slot: int) -> bool:
        return True  # all arrivals happen in slot 1

    def spec_params(self) -> dict:
        from ..spec.rates import rate_function_to_spec

        # ``horizon`` is intentionally absent: adversary specs are
        # horizon-free, the study supplies it at build time.
        return {
            "g": rate_function_to_spec(self._g),
            "initial_nodes": self._initial_nodes,
            "jam_constant": self._jam_constant,
        }


class NonAdaptiveKillerAdversary(Adversary):
    """Adversary of Theorem 4.2 against fixed-probability (non-adaptive) protocols."""

    name = "non-adaptive-killer"
    spec_kind = "non-adaptive-killer"
    precompilable = True  # all randomness is realized in setup()

    def __init__(
        self,
        horizon: int,
        g: RateFunction,
        f: RateFunction,
        jam_constant: float = 4.0,
        arrival_constant: float = 4.0,
    ) -> None:
        if horizon < 4:
            raise ConfigurationError("horizon must be at least 4")
        self._horizon = horizon
        self._g = g
        self._f = f
        self._jam_constant = jam_constant
        self._arrival_constant = arrival_constant
        self._front_jam = 0
        self._late_arrivals = 0
        self.name = f"non-adaptive-killer(g={g.name})"

    def setup(self, rng: np.random.Generator, horizon: Optional[int] = None) -> None:
        t = self._horizon
        self._front_jam = max(
            1, min(t - 1, int(t / (self._jam_constant * self._g(float(t)))))
        )
        self._late_arrivals = max(
            1, int(t / (self._arrival_constant * self._f(float(t))))
        )

    @property
    def front_jam_slots(self) -> int:
        return self._front_jam

    @property
    def late_arrivals(self) -> int:
        return self._late_arrivals

    def action_for_slot(self, slot: int) -> AdversaryAction:
        arrivals = 0
        if slot == 1:
            arrivals = 2
        elif slot == self._horizon:
            arrivals = self._late_arrivals
        jam = slot <= self._front_jam or slot == self._horizon
        return AdversaryAction(arrivals=arrivals, jam=jam)

    def precompile(self, horizon: int) -> PrecompiledSchedule:
        arrivals = np.zeros(horizon + 1, dtype=np.int64)
        jammed = np.zeros(horizon + 1, dtype=bool)
        jammed[1 : self._front_jam + 1] = True
        if 1 <= self._horizon <= horizon:
            arrivals[self._horizon] = self._late_arrivals
            jammed[self._horizon] = True
        arrivals[1:2] = 2  # slot 1 takes precedence, as in action_for_slot
        return PrecompiledSchedule(arrivals=arrivals, jammed=jammed)

    def arrivals_exhausted(self, slot: int) -> bool:
        return slot >= self._horizon

    def spec_params(self) -> dict:
        from ..spec.rates import rate_function_to_spec

        # ``horizon`` is intentionally absent (as in LowerBoundAdversary):
        # adversary specs are horizon-free, the study supplies it at build.
        return {
            "g": rate_function_to_spec(self._g),
            "f": rate_function_to_spec(self._f),
            "jam_constant": self._jam_constant,
            "arrival_constant": self._arrival_constant,
        }
