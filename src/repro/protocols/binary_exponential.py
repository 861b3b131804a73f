"""Binary exponential backoff baselines.

Two classical implementations are provided:

* :class:`WindowedBinaryExponentialBackoff` — the Ethernet-style contention
  window: after each failed attempt the node doubles its window and picks a
  uniformly random slot in the new window for its next attempt.
* :class:`ProbabilityBackoff` — the probability formulation used throughout
  the paper's analysis: in the ``i``-th slot since activation the node
  broadcasts with probability ``min(1, c / i)``; with ``c = 1`` this is
  exactly the ``h_data``-batch of Claim 3.5.1 run individually.

``BinaryExponentialBackoff`` is an alias for the windowed variant, the name
most readers expect.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..types import Feedback
from .base import (
    OP_WINDOWED,
    AgeProfileLockstepProgram,
    CompiledProgramTables,
    LockstepProgram,
    Protocol,
    grow_flat_column,
    lockstep_bounded_offsets,
)

__all__ = [
    "WindowedBinaryExponentialBackoff",
    "ProbabilityBackoff",
    "BinaryExponentialBackoff",
    "WindowedBackoffLockstepProgram",
]


class WindowedBinaryExponentialBackoff(Protocol):
    """Ethernet-style binary exponential backoff with a doubling contention window."""

    name = "binary-exponential-backoff"
    spec_kind = "binary-exponential-backoff"

    def __init__(self, initial_window: int = 2, max_window: Optional[int] = None) -> None:
        if initial_window < 1:
            raise ConfigurationError("initial_window must be >= 1")
        if max_window is not None and max_window < initial_window:
            raise ConfigurationError("max_window must be >= initial_window")
        self._initial_window = initial_window
        self._max_window = max_window
        self._rng: Optional[np.random.Generator] = None
        self._window = initial_window
        self._next_attempt_slot = 0
        self._arrival_slot = 0

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        self._rng = rng
        self._arrival_slot = slot
        self._window = self._initial_window
        self._schedule_next(slot)

    def _schedule_next(self, current_slot: int) -> None:
        assert self._rng is not None
        offset = int(self._rng.integers(0, self._window))
        self._next_attempt_slot = current_slot + offset

    def wants_to_broadcast(self, slot: int) -> bool:
        return slot == self._next_attempt_slot

    def on_feedback(
        self, slot: int, feedback: Feedback, broadcast: bool, success_was_own: bool
    ) -> None:
        if success_was_own:
            return
        if broadcast and feedback is not Feedback.SUCCESS:
            # Attempt failed: double the window and reschedule.
            self._window *= 2
            if self._max_window is not None:
                self._window = min(self._window, self._max_window)
            self._schedule_next(slot + 1)
        elif not broadcast and slot >= self._next_attempt_slot:
            # Defensive: if the scheduled attempt slipped past (should not
            # happen in normal operation), reschedule without growing.
            self._schedule_next(slot + 1)

    def spec_params(self) -> dict:
        return {
            "initial_window": self._initial_window,
            "max_window": self._max_window,
        }

    def lockstep_program(self) -> Optional[LockstepProgram]:
        if type(self) is not WindowedBinaryExponentialBackoff:
            return None
        return WindowedBackoffLockstepProgram(
            initial_window=self._initial_window, max_window=self._max_window
        )


class WindowedBackoffLockstepProgram(LockstepProgram):
    """Columnar state shared by the windowed backoff family (BEB, polynomial).

    One (window-or-failures, next-attempt) pair per node; the broadcast
    decision is deterministic (``slot == next_attempt``) and randomness is
    consumed only when an attempt is rescheduled — one bounded integer per
    reschedule, exactly as ``_schedule_next`` draws it.

    Binary exponential backoff doubles its window on failure; the polynomial
    variant passes ``degree`` and regrows its window from a failure counter
    instead.
    """

    def __init__(
        self,
        initial_window: int,
        max_window: Optional[int] = None,
        degree: Optional[float] = None,
    ) -> None:
        self._initial = initial_window
        self._max = max_window
        self._degree = degree
        self._pool = None

    def compiled_tables(self, horizon: int) -> CompiledProgramTables:
        from ..sim import artifacts

        # Memoized process-wide: the tables are a pure function of the
        # window parameters (the horizon never shapes them, but it stays in
        # the key so every compiled_tables cache shares one convention).
        key = (
            "windowed-tables",
            self._initial,
            self._max,
            self._degree,
            horizon,
        )
        return artifacts.cached_artifact(
            key,
            lambda: CompiledProgramTables.build(
                opcode=OP_WINDOWED,
                # [window, failures, next_attempt]
                int_state_width=3,
                float_state_width=0,
                prog_i=[
                    self._initial,
                    -1 if self._max is None else self._max,
                    0 if self._degree is None else 1,
                ],
                prog_f=[0.0 if self._degree is None else self._degree],
            ),
        )

    def bind(self, trials: int, capacity: int, pool, horizon: int) -> None:
        self._pool = pool
        rows = trials * capacity
        self._window = np.zeros(rows, dtype=np.int64)
        self._failures = np.zeros(rows, dtype=np.int64)
        self._next_attempt = np.zeros(rows, dtype=np.int64)

    def grow(self, trials: int, old_capacity: int, new_capacity: int) -> None:
        args = (trials, old_capacity, new_capacity)
        self._window = grow_flat_column(self._window, *args)
        self._failures = grow_flat_column(self._failures, *args)
        self._next_attempt = grow_flat_column(self._next_attempt, *args)

    def _grown_windows(self, failures: np.ndarray) -> np.ndarray:
        """Polynomial window ``max(initial, round((failures + 1)**degree))``."""
        grown = np.rint(
            np.power((failures + 1).astype(np.float64), self._degree)
        ).astype(np.int64)
        return np.maximum(np.int64(self._initial), grown)

    def _reschedule(self, rows: np.ndarray, from_slot: int) -> None:
        offsets = lockstep_bounded_offsets(
            self._pool, rows, self._window[rows] - 1
        )
        self._next_attempt[rows] = from_slot + offsets

    def arrive(self, rows: np.ndarray, slot: int | np.ndarray) -> None:
        if self._degree is None:
            self._window[rows] = self._initial
        else:
            self._failures[rows] = 0
            self._window[rows] = self._grown_windows(self._failures[rows])
        self._reschedule(rows, slot)

    def step(self, rows: np.ndarray, slot: int) -> np.ndarray:
        return self._next_attempt[rows] == slot

    def feedback(
        self,
        slot: int,
        rows: np.ndarray,
        sends: np.ndarray,
        trial_success: np.ndarray,
        own_success: np.ndarray,
    ) -> None:
        failed = sends & ~trial_success
        if np.count_nonzero(failed):
            losers = rows[failed]
            if self._degree is None:
                window = self._window[losers] * 2
                if self._max is not None:
                    window = np.minimum(window, np.int64(self._max))
            else:
                failures = self._failures[losers] + 1
                self._failures[losers] = failures
                window = self._grown_windows(failures)
            self._window[losers] = window
            self._reschedule(losers, slot + 1)
        # Defensive reschedule of a slipped attempt, as on_feedback does (never
        # reached in practice); a winner sent, so ``~sends`` excludes it.
        slipped = ~sends & (self._next_attempt[rows] <= slot)
        if np.count_nonzero(slipped):
            self._reschedule(rows[slipped], slot + 1)


class ProbabilityBackoff(Protocol):
    """Broadcast with probability ``min(1, scale / i)`` in the ``i``-th slot since arrival.

    With ``scale = 1`` this is the per-node version of the paper's
    ``h_data``-batch; running ``n`` simultaneously-activated instances is
    exactly the process of Claim 3.5.1.
    """

    name = "probability-backoff"
    vector_eligible = True
    spec_kind = "probability-backoff"

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        self._scale = scale
        self._rng: Optional[np.random.Generator] = None
        self._arrival_slot = 0

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        self._rng = rng
        self._arrival_slot = slot

    def _probability(self, slot: int) -> float:
        i = slot - self._arrival_slot + 1
        return min(1.0, self._scale / i)

    def wants_to_broadcast(self, slot: int) -> bool:
        assert self._rng is not None
        return bool(self._rng.random() < self._probability(slot))

    def on_feedback(
        self, slot: int, feedback: Feedback, broadcast: bool, success_was_own: bool
    ) -> None:
        # Non-adaptive in the sense of the paper: the sending probability only
        # depends on the time since arrival, not on the feedback history.
        return None

    def age_probability_vector(self, max_age: int) -> np.ndarray:
        ages = np.arange(max_age + 1, dtype=float)
        ages[0] = 1.0  # avoid division by zero; index 0 is unused
        probabilities = np.minimum(1.0, self._scale / ages)
        probabilities[0] = 0.0
        return probabilities

    def spec_params(self) -> dict:
        return {"scale": self._scale}

    def lockstep_program(self) -> Optional[LockstepProgram]:
        if type(self) is not ProbabilityBackoff:
            return None
        return AgeProfileLockstepProgram(self)


BinaryExponentialBackoff = WindowedBinaryExponentialBackoff
