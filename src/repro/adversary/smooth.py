"""The "smooth" adversary of Corollary 3.6.

An adversary strategy is *smooth* over an interval ``[1, t]`` if, for every
suffix ``[t - j, t]``, the number of arrivals in the suffix is ``O(j / f(j))``
and the number of jammed slots is ``O(j / g(j))``.  Under a smooth strategy,
Corollary 3.6 states that every node arrived before slot ``t - j`` has left the
system by slot ``t`` w.h.p. in ``j`` — i.e. the system keeps draining.

:class:`SmoothAdversary` constructs such a strategy by spreading arrivals and
jammed slots evenly so that every suffix budget holds by construction, and it
exposes :meth:`verify_smoothness` so tests can check the property directly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import numpy as np

from ..errors import ConfigurationError
from ..functions import RateFunction
from ..types import AdversaryAction
from .base import Adversary, PrecompiledSchedule

__all__ = ["SmoothAdversary"]


class SmoothAdversary(Adversary):
    """Evenly spread arrivals and jamming satisfying the Corollary 3.6 budgets."""

    name = "smooth"
    spec_kind = "smooth"
    precompilable = True  # schedules are fully materialized in setup()

    def __init__(
        self,
        horizon: int,
        f: RateFunction,
        g: RateFunction,
        arrival_constant: float = 8.0,
        jam_constant: float = 8.0,
    ) -> None:
        if horizon < 2:
            raise ConfigurationError("horizon must be >= 2")
        if arrival_constant <= 0 or jam_constant <= 0:
            raise ConfigurationError("constants must be positive")
        self._horizon = horizon
        self._f = f
        self._g = g
        self._arrival_constant = arrival_constant
        self._jam_constant = jam_constant
        self._arrival_schedule: Dict[int, int] = {}
        self._jam_schedule: Set[int] = set()
        self.name = f"smooth(f={f.name}, g={g.name})"

    def setup(self, rng: np.random.Generator, horizon: Optional[int] = None) -> None:
        t = self._horizon
        total_arrivals = max(1, int(t / (self._arrival_constant * self._f(float(t)))))
        total_jams = int(t / (self._jam_constant * self._g(float(t))))
        # Spread arrivals at (approximately) even spacing; even spacing makes
        # every suffix budget hold automatically because the density is
        # uniform and the budget functions are (sub-)logarithmically varying.
        self._arrival_schedule = {}
        if total_arrivals > 0:
            spacing = t / total_arrivals
            for index in range(total_arrivals):
                slot = min(t, max(1, int(round((index + 0.5) * spacing))))
                self._arrival_schedule[slot] = self._arrival_schedule.get(slot, 0) + 1
        self._jam_schedule = set()
        if total_jams > 0:
            spacing = t / total_jams
            for index in range(total_jams):
                slot = min(t, max(1, int(round((index + 0.5) * spacing)) + 1))
                self._jam_schedule.add(slot)

    @property
    def total_arrivals(self) -> int:
        return sum(self._arrival_schedule.values())

    @property
    def total_jams(self) -> int:
        return len(self._jam_schedule)

    def action_for_slot(self, slot: int) -> AdversaryAction:
        return AdversaryAction(
            arrivals=self._arrival_schedule.get(slot, 0),
            jam=slot in self._jam_schedule,
        )

    def precompile(self, horizon: int) -> PrecompiledSchedule:
        arrivals = np.zeros(horizon + 1, dtype=np.int64)
        jammed = np.zeros(horizon + 1, dtype=bool)
        slots = np.fromiter(self._arrival_schedule.keys(), dtype=np.int64)
        counts = np.fromiter(self._arrival_schedule.values(), dtype=np.int64)
        keep = slots <= horizon
        arrivals[slots[keep]] = counts[keep]
        jams = np.fromiter(self._jam_schedule, dtype=np.int64)
        jammed[jams[jams <= horizon]] = True
        return PrecompiledSchedule(arrivals=arrivals, jammed=jammed)

    def arrivals_exhausted(self, slot: int) -> bool:
        return not self._arrival_schedule or slot >= max(self._arrival_schedule)

    def arrivals_in_suffix(self, j: int) -> int:
        """Number of arrivals in the last ``j`` slots of the horizon."""
        start = self._horizon - j
        return sum(c for s, c in self._arrival_schedule.items() if s >= start)

    def jams_in_suffix(self, j: int) -> int:
        start = self._horizon - j
        return sum(1 for s in self._jam_schedule if s >= start)

    def verify_smoothness(
        self,
        suffix_lengths: Optional[List[int]] = None,
        slack: float = 4.0,
    ) -> bool:
        """Check the suffix budgets ``O(j / f(j))`` and ``O(j / g(j))`` hold."""
        if suffix_lengths is None:
            suffix_lengths = [
                2**k for k in range(2, int(math.log2(self._horizon)) + 1)
            ]
        for j in suffix_lengths:
            j = min(j, self._horizon - 1)
            if j < 2:
                continue
            arrival_budget = slack * j / (self._arrival_constant * self._f(float(j)))
            jam_budget = slack * j / (self._jam_constant * self._g(float(j))) + 1
            if self.arrivals_in_suffix(j) > arrival_budget:
                return False
            if self.jams_in_suffix(j) > jam_budget:
                return False
        return True

    def spec_params(self) -> dict:
        from ..spec.rates import rate_function_to_spec

        return {
            "f": rate_function_to_spec(self._f),
            "g": rate_function_to_spec(self._g),
            "arrival_constant": self._arrival_constant,
            "jam_constant": self._jam_constant,
        }
