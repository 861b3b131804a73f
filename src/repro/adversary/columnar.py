"""Columnar adversary drivers for the lockstep study kernel.

The lockstep kernel advances all ``T`` trials of a study one slot at a time,
so it needs every trial's adversary decision per slot.  A *driver* supplies
those decisions as ``(T,)`` arrays:

* :class:`ScheduledLockstepDriver` — oblivious arrivals, whose whole
  schedules are materialized up front, with either a precompiled jam
  schedule or :class:`~repro.adversary.jamming.ReactiveJamming`; the
  jammer's counters (pending burst, budget spent) become int columns over
  trials, its slots seen are the slot number, and every trial's
  ``jam_slot`` evaluates in one vectorized expression.  An oblivious trial
  is a reactive one whose burst is 0, so both kinds share one driver (and
  one fused run);
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
node work, and neither do quiet ones, in which the live nodes are known not
to send until a given slot, so the kernel asks the driver to jump them
(:meth:`LockstepAdversaryDriver.skip_idle`).  The scheduled driver skips to
its next scheduled arrival (or the end of the quiet stretch) and copies the
skipped static jam columns, unless some running trial has a reactive burst
pending: that burst jams in the coming slots, so it steps slot by slot
until the burst is spent.  The chaser and the generic driver step every
slot: their next arrival depends on per-slot state or on the adversary's
own code.
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
    "ScheduledLockstepDriver",
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
        """Deliver the slot's feedback to every still-running trial.

        The arrays are read-only: slots without a success share them.
        """

    def skip_idle(
        self,
        slot: int,
        trial_active: np.ndarray,
        jam_m: np.ndarray,
        until: Optional[int] = None,
    ) -> int:
        """Jump a stretch without a sender starting at ``slot``; the slot to
        resume at.

        Called when no running trial holds a live node, or when none of the
        live nodes sends before ``until``.  Either way no slot of the
        stretch has a success.  A driver that knows the following slots
        need no per-slot decision accounts for them in one step — its
        counters, and the skipped columns of the ``(T, horizon+1)`` jam
        matrix ``jam_m`` — and returns the first slot that does, at most
        ``until`` (``horizon + 1`` when none is left).  The default skips
        nothing.
        """
        return slot

    def exhausted(self, trial: int, slot: int) -> bool:
        """Whether trial ``trial``'s adversary can inject no more nodes."""
        return self.adversaries[trial].arrivals_exhausted(slot)

    def describe(self, trial: int) -> str:
        return self.adversaries[trial].describe()


def _reactive_schedulable(adversary: Adversary) -> bool:
    """Whether the adversary is oblivious arrivals + :class:`ReactiveJamming`,
    which :class:`ScheduledLockstepDriver` runs with the jammer columnar."""
    return (
        type(adversary) is ComposedAdversary
        and not adversary.arrivals.adaptive
        and type(adversary.jamming) is ReactiveJamming
    )


class ScheduledLockstepDriver(LockstepAdversaryDriver):
    """Oblivious arrivals with a static jam schedule or reactive jamming.

    Per trial: the arrival schedule, a static jam row and the columns of a
    :class:`~repro.adversary.jamming.ReactiveJamming` jammer (pending
    burst, budget spent, fraction, burst length).  An oblivious trial has
    burst 0, so its jammer never has a burst pending; a reactive trial has
    an all-False static row.  Every column is per trial, so studies of
    both kinds stack into one driver by concatenation.  Without
    ``fractions`` and ``bursts`` every trial is oblivious.
    """

    def __init__(
        self,
        adversaries: List[Adversary],
        arrivals: np.ndarray,
        jammed: np.ndarray,
        fractions: Optional[np.ndarray] = None,
        bursts: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(adversaries)
        self.arrival_schedule = arrivals
        # Slots in which any trial's schedule injects, then horizon + 1.
        self._arrival_slots = (
            np.flatnonzero(arrivals[:, 1:].any(axis=0)) + 1
        ).tolist() + [arrivals.shape[1]]
        self._jammed = jammed
        self._fraction = np.zeros(self.trials) if fractions is None else fractions
        self._burst = np.zeros(self.trials, np.int64) if bursts is None else bursts
        self._pending = np.zeros(self.trials, dtype=np.int64)
        self._jammed_so_far = np.zeros(self.trials, dtype=np.int64)

    @classmethod
    def try_reactive(
        cls, adversaries: List[Adversary], horizon: int
    ) -> Optional["ScheduledLockstepDriver"]:
        """Build when every trial is (oblivious arrivals) + ReactiveJamming.

        Must be called after every adversary's ``setup``; precompiling the
        arrival strategies here consumes their generators exactly as the
        per-slot reference calls would.  All trials are type-checked before
        the first ``precompile``, but a strategy that still bails mid-way
        leaves earlier trials' strategies consumed — the caller must then
        rebuild the adversaries before falling back to a per-slot driver
        (see the ``None``-return contract).
        """
        if not all(map(_reactive_schedulable, adversaries)):
            return None
        specs = [adversary.jamming.spec_params() for adversary in adversaries]
        arrivals = np.zeros((len(adversaries), horizon + 1), dtype=np.int64)
        for index, adversary in enumerate(adversaries):
            schedule = adversary.arrivals.precompile(horizon)
            if schedule is None:
                return None
            arrivals[index] = schedule
        return cls(
            adversaries,
            arrivals,
            np.zeros(arrivals.shape, dtype=bool),
            np.array([spec["fraction"] for spec in specs], dtype=float),
            np.array([spec["burst"] for spec in specs], dtype=np.int64),
        )

    def _next_arrival(self, slot: int) -> int:
        """The first scheduled arrival slot at or after ``slot``."""
        return self._arrival_slots[bisect.bisect_left(self._arrival_slots, slot)]

    def _arrivals(self, slot: int, trial_active: np.ndarray) -> np.ndarray:
        column = self.arrival_schedule[:, slot]
        if np.count_nonzero(trial_active) < self.trials:
            return np.where(trial_active, column, 0)
        column.setflags(write=False)  # a view of the schedule
        return column

    def actions(self, slot: int, trial_active: np.ndarray) -> tuple:
        jam = self._jammed[:, slot] & trial_active
        # jam_slot, vectorized over the running trials (which have seen
        # every slot): jam while a burst is pending and the budget allows.
        if np.count_nonzero(self._pending):
            budget = np.floor(self._fraction * slot).astype(np.int64)
            burst = trial_active & (self._pending > 0) & (self._jammed_so_far < budget)
            self._pending -= burst
            self._jammed_so_far += burst
            jam |= burst
        return self._arrivals(slot, trial_active), jam

    def observe(self, slot, success, winner_ids, trial_active) -> None:
        if np.count_nonzero(success):
            refresh = success & trial_active
            self._pending[refresh] = self._burst[refresh]

    def skip_idle(
        self,
        slot: int,
        trial_active: np.ndarray,
        jam_m: np.ndarray,
        until: Optional[int] = None,
    ) -> int:
        # A pending burst may jam any coming slot, so step slot by slot
        # until it is spent.  Without one, a slot without a sender only
        # counts towards the budget, no success can refresh a burst, and
        # the static jam columns up to the next arrival are copied in one
        # step.
        if np.count_nonzero(self._pending[trial_active]):
            return slot
        resume = self._next_arrival(slot)
        if until is not None:
            resume = min(resume, until)
        np.logical_and(
            self._jammed[:, slot:resume],
            trial_active[:, None],
            out=jam_m[:, slot:resume],
        )
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
        for trial in trial_active.nonzero()[0].tolist():
            action = self.adversaries[trial].action_for_slot(slot)
            arrivals[trial] = action.arrivals
            jam[trial] = action.jam
        return arrivals, jam

    def observe(self, slot, success, winner_ids, trial_active) -> None:
        for trial in trial_active.nonzero()[0].tolist():
            won = bool(success[trial])
            observation = SlotObservation(
                slot=slot,
                feedback=Feedback.SUCCESS if won else Feedback.NO_SUCCESS,
                message_node=int(winner_ids[trial]) if won else None,
            )
            self.adversaries[trial].observe(observation)
