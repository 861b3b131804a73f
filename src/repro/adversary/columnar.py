"""Columnar adversary drivers for the lockstep study kernel.

The lockstep kernel advances all ``T`` trials of a study one slot at a time,
so it needs every trial's adversary decision per slot.  A *driver* supplies
those decisions as ``(T,)`` arrays:

* :class:`PrecompiledLockstepDriver` — oblivious adversaries whose whole
  schedules were materialized up front (no per-slot work at all);
* :class:`ReactiveJammingLockstepDriver` — oblivious arrivals composed with
  :class:`~repro.adversary.jamming.ReactiveJamming`; the jammer's counters
  (slots seen, pending burst, budget spent) become int columns over trials
  and every trial's ``jam_slot`` evaluates in one vectorized expression;
* :class:`AdaptiveChaserLockstepDriver` — the fully adaptive
  :class:`~repro.adversary.adaptive.AdaptiveSuccessChaser`, likewise
  vectorized over trials;
* :class:`GenericLockstepDriver` — any other adversary, driven through the
  per-instance Python API one trial at a time (correct for everything,
  O(T) Python calls per slot).

All drivers replicate the reference loop's calling convention: decisions are
produced only for still-running trials (a drained trial's adversary is never
stepped again) and observations are delivered after each slot's resolution,
exactly as :meth:`~repro.adversary.base.Adversary.observe` receives them.
None of the columnar adversaries consume randomness after ``setup``, so the
vectorized replay is trivially stream-identical.

Idle stretches — slots in which no running trial holds a live node — need no
node work, so the kernel asks the driver to jump them
(:meth:`LockstepAdversaryDriver.skip_idle`).  The two schedule-backed
drivers skip to their next scheduled arrival: the precompiled driver copies
the skipped jam columns from its schedule, the reactive driver advances its
slot counters in one step (only while no burst is pending, since a pending
burst jams in the coming slots).  The chaser and the generic driver step
every slot: their next arrival depends on per-slot state or on the
adversary's own code.
"""

from __future__ import annotations

import abc
import bisect
from typing import List, Optional

import numpy as np

from ..types import Feedback, SlotObservation
from .adaptive import AdaptiveSuccessChaser
from .base import Adversary, ComposedAdversary
from .jamming import ReactiveJamming

__all__ = [
    "LockstepAdversaryDriver",
    "PrecompiledLockstepDriver",
    "ReactiveJammingLockstepDriver",
    "AdaptiveChaserLockstepDriver",
    "GenericLockstepDriver",
]


class LockstepAdversaryDriver(abc.ABC):
    """Per-slot adversary decisions for all trials of a lockstep study."""

    def __init__(self, adversaries: List[Adversary]) -> None:
        self.adversaries = adversaries
        self.trials = len(adversaries)

    #: Whole-horizon ``(T, horizon+1)`` arrival schedule when known up front
    #: (lets the kernel size its node columns exactly); ``None`` otherwise.
    arrival_schedule: Optional[np.ndarray] = None

    @abc.abstractmethod
    def actions(
        self, slot: int, trial_active: np.ndarray
    ) -> tuple:
        """``(arrivals, jam)`` arrays for ``slot``; zeros for stopped trials."""

    def observe(
        self,
        slot: int,
        success: np.ndarray,
        winner_ids: np.ndarray,
        trial_active: np.ndarray,
    ) -> None:
        """Deliver the slot's feedback to every still-running trial."""

    def skip_idle(
        self, slot: int, trial_active: np.ndarray, jam_m: np.ndarray
    ) -> int:
        """Jump an idle stretch starting at ``slot``; the slot to resume at.

        Called only when no running trial holds a live node.  A driver that
        knows the following slots need no per-slot decision accounts for
        them in one step — its counters, and the skipped columns of the
        ``(T, horizon+1)`` jam matrix ``jam_m`` — and returns the first slot
        that does (``horizon + 1`` when none is left).  The default skips
        nothing.
        """
        return slot

    def exhausted(self, trial: int, slot: int) -> bool:
        """Whether trial ``trial``'s adversary can inject no more nodes."""
        return self.adversaries[trial].arrivals_exhausted(slot)

    def describe(self, trial: int) -> str:
        return self.adversaries[trial].describe()


class _ScheduledLockstepDriver(LockstepAdversaryDriver):
    """Drivers whose ``(T, horizon+1)`` arrival schedule is known up front."""

    def __init__(self, adversaries: List[Adversary], arrivals: np.ndarray) -> None:
        super().__init__(adversaries)
        self.arrival_schedule = arrivals
        # Slots in which any trial's schedule injects, then horizon + 1.
        self._arrival_slots = (
            np.flatnonzero(arrivals[:, 1:].any(axis=0)) + 1
        ).tolist() + [arrivals.shape[1]]

    def _next_arrival(self, slot: int) -> int:
        """The first scheduled arrival slot at or after ``slot``."""
        return self._arrival_slots[bisect.bisect_left(self._arrival_slots, slot)]


class PrecompiledLockstepDriver(_ScheduledLockstepDriver):
    """Oblivious adversaries: schedules fully materialized before slot 1."""

    def __init__(
        self,
        adversaries: List[Adversary],
        arrivals: np.ndarray,
        jammed: np.ndarray,
    ) -> None:
        super().__init__(adversaries, arrivals)
        self._jammed = jammed

    def actions(self, slot: int, trial_active: np.ndarray) -> tuple:
        arrivals = np.where(trial_active, self.arrival_schedule[:, slot], 0)
        jam = self._jammed[:, slot] & trial_active
        return arrivals, jam

    def skip_idle(
        self, slot: int, trial_active: np.ndarray, jam_m: np.ndarray
    ) -> int:
        resume = self._next_arrival(slot)
        np.logical_and(
            self._jammed[:, slot:resume],
            trial_active[:, None],
            out=jam_m[:, slot:resume],
        )
        return resume


class ReactiveJammingLockstepDriver(_ScheduledLockstepDriver):
    """Oblivious arrivals + reactive jamming, with the jammer's state columnar."""

    def __init__(
        self,
        adversaries: List[Adversary],
        arrivals: np.ndarray,
        fractions: np.ndarray,
        bursts: np.ndarray,
    ) -> None:
        super().__init__(adversaries, arrivals)
        self._fraction = fractions
        self._burst = bursts
        self._seen = np.zeros(self.trials, dtype=np.int64)
        self._pending = np.zeros(self.trials, dtype=np.int64)
        self._jammed_so_far = np.zeros(self.trials, dtype=np.int64)

    @classmethod
    def try_build(
        cls, adversaries: List[Adversary], horizon: int
    ) -> Optional["ReactiveJammingLockstepDriver"]:
        """Build when every trial is (oblivious arrivals) + ReactiveJamming.

        Must be called after every adversary's ``setup``; precompiling the
        arrival strategies here consumes their generators exactly as the
        per-slot reference calls would.  All trials are type-checked before
        the first ``precompile``, but a strategy that still bails mid-way
        leaves earlier trials' strategies consumed — the caller must then
        rebuild the adversaries before falling back to a per-slot driver
        (see the ``None``-return contract).
        """
        specs = []
        for adversary in adversaries:
            if type(adversary) is not ComposedAdversary:
                return None
            if adversary.arrivals.adaptive:
                return None
            if type(adversary.jamming) is not ReactiveJamming:
                return None
            specs.append(adversary.jamming.spec_params())
        arrivals = np.zeros((len(adversaries), horizon + 1), dtype=np.int64)
        for index, adversary in enumerate(adversaries):
            schedule = adversary.arrivals.precompile(horizon)
            if schedule is None:
                return None
            arrivals[index] = schedule
        fractions = np.array([spec["fraction"] for spec in specs], dtype=float)
        bursts = np.array([spec["burst"] for spec in specs], dtype=np.int64)
        return cls(adversaries, arrivals, fractions, bursts)

    def actions(self, slot: int, trial_active: np.ndarray) -> tuple:
        arrivals = np.where(trial_active, self.arrival_schedule[:, slot], 0)
        # jam_slot, vectorized over the running trials: count the slot,
        # then jam while a burst is pending and the budget allows.
        self._seen += trial_active
        budget = np.floor(self._fraction * self._seen).astype(np.int64)
        jam = trial_active & (self._pending > 0) & (self._jammed_so_far < budget)
        self._pending -= jam
        self._jammed_so_far += jam
        return arrivals, jam

    def observe(self, slot, success, winner_ids, trial_active) -> None:
        refresh = success & trial_active
        self._pending[refresh] = self._burst[refresh]

    def skip_idle(
        self, slot: int, trial_active: np.ndarray, jam_m: np.ndarray
    ) -> int:
        # A pending burst may jam any coming slot, so step slot by slot
        # until it is spent.  Without one, an idle slot only counts towards
        # the budget, and no success can refresh the burst.
        if (self._pending[trial_active] > 0).any():
            return slot
        resume = self._next_arrival(slot)
        self._seen += trial_active * (resume - slot)
        return resume


class AdaptiveChaserLockstepDriver(LockstepAdversaryDriver):
    """:class:`AdaptiveSuccessChaser` with its counters as trial columns."""

    def __init__(self, adversaries: List[Adversary]) -> None:
        super().__init__(adversaries)
        specs = [adversary.spec_params() for adversary in adversaries]
        self._jam_fraction = np.array(
            [spec["jam_fraction"] for spec in specs], dtype=float
        )
        self._per_success = np.array(
            [spec["arrival_budget_per_success"] for spec in specs], dtype=np.int64
        )
        budgets = [spec["total_arrival_budget"] for spec in specs]
        self._unbounded = np.array([b is None for b in budgets], dtype=bool)
        self._total_budget = np.array(
            [0 if b is None else b for b in budgets], dtype=np.int64
        )
        self._jam_burst = np.array([spec["jam_burst"] for spec in specs], np.int64)
        self._seed_arrivals = np.array(
            [spec["seed_arrivals"] for spec in specs], dtype=np.int64
        )
        self._pending_arrivals = np.zeros(self.trials, dtype=np.int64)
        self._pending_jam = np.zeros(self.trials, dtype=np.int64)
        self._injected = np.zeros(self.trials, dtype=np.int64)
        self._jammed = np.zeros(self.trials, dtype=np.int64)
        self._slots = np.zeros(self.trials, dtype=np.int64)

    @classmethod
    def try_build(
        cls, adversaries: List[Adversary], horizon: int
    ) -> Optional["AdaptiveChaserLockstepDriver"]:
        if any(type(a) is not AdaptiveSuccessChaser for a in adversaries):
            return None
        return cls(adversaries)

    def actions(self, slot: int, trial_active: np.ndarray) -> tuple:
        self._slots += trial_active
        arrivals = self._pending_arrivals + (
            self._seed_arrivals if slot == 1 else 0
        )
        arrivals = np.where(trial_active, arrivals, 0)
        remaining = np.maximum(0, self._total_budget - self._injected)
        arrivals = np.where(
            self._unbounded, arrivals, np.minimum(arrivals, remaining)
        )
        self._pending_arrivals[trial_active] = 0
        self._injected += arrivals
        jam_budget = np.floor(self._jam_fraction * self._slots).astype(np.int64)
        jam = trial_active & (self._pending_jam > 0) & (self._jammed < jam_budget)
        self._pending_jam -= jam
        self._jammed += jam
        return arrivals, jam

    def observe(self, slot, success, winner_ids, trial_active) -> None:
        chased = success & trial_active
        self._pending_arrivals[chased] += self._per_success[chased]
        self._pending_jam[chased] = self._jam_burst[chased]

    def exhausted(self, trial: int, slot: int) -> bool:
        return bool(
            not self._unbounded[trial]
            and self._injected[trial] >= self._total_budget[trial]
            and self._pending_arrivals[trial] == 0
        )


class GenericLockstepDriver(LockstepAdversaryDriver):
    """Fallback: drive each trial's adversary through the per-instance API."""

    def actions(self, slot: int, trial_active: np.ndarray) -> tuple:
        arrivals = np.zeros(self.trials, dtype=np.int64)
        jam = np.zeros(self.trials, dtype=bool)
        for trial in np.nonzero(trial_active)[0]:
            action = self.adversaries[int(trial)].action_for_slot(slot)
            arrivals[trial] = action.arrivals
            jam[trial] = action.jam
        return arrivals, jam

    def observe(self, slot, success, winner_ids, trial_active) -> None:
        for trial in np.nonzero(trial_active)[0]:
            trial = int(trial)
            won = bool(success[trial])
            observation = SlotObservation(
                slot=slot,
                feedback=Feedback.SUCCESS if won else Feedback.NO_SUCCESS,
                message_node=int(winner_ids[trial]) if won else None,
            )
            self.adversaries[trial].observe(observation)
