"""Sawtooth backoff baseline.

Sawtooth backoff (a batched backoff variant from the adversarial-arrival
literature, cf. Bender et al. SPAA '05) repeatedly executes *runs*: a run with
window ``w`` consists of ``log₂ w`` phases in which the node broadcasts with
probabilities ``1/w, 2/w, 4/w, …, 1/2`` (monotonically increasing — the
"sawtooth" ramps up within a run), each phase lasting the corresponding number
of slots.  After an unsuccessful run the window doubles and a new run starts.
The ramp-up inside a run gives the protocol a backon flavour without requiring
collision detection.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import Feedback
from .base import (
    OP_SAWTOOTH,
    CompiledProgramTables,
    LockstepProgram,
    Protocol,
    grow_flat_column,
)

__all__ = ["SawtoothBackoff", "SawtoothLockstepProgram"]


class SawtoothBackoff(Protocol):
    """Repeated doubling runs, each ramping its sending probability up to 1/2."""

    name = "sawtooth-backoff"
    spec_kind = "sawtooth-backoff"

    def __init__(self, initial_window: int = 4, max_window: Optional[int] = None) -> None:
        if initial_window < 2:
            raise ConfigurationError("initial_window must be >= 2")
        if max_window is not None and max_window < initial_window:
            raise ConfigurationError("max_window must be >= initial_window")
        self._initial_window = initial_window
        self._max_window = max_window
        self._rng: Optional[np.random.Generator] = None
        self._window = initial_window
        # Phase-level schedule of the current run: (first_slot, end_slot,
        # probability) per phase — O(log window) entries, never one per slot.
        self._phases: List[Tuple[int, int, float]] = []
        self._cursor = 0
        self._run_start_slot = 0

    def _build_run(self, start_slot: int) -> None:
        """Precompute the run's phases for the current window."""
        self._phases = []
        slot = start_slot
        probability = 1.0 / self._window
        while probability <= 0.5 + 1e-12:
            phase_length = max(1, int(round(1.0 / probability)))
            self._phases.append((slot, slot + phase_length, probability))
            slot += phase_length
            probability *= 2.0
        self._cursor = 0
        self._run_start_slot = start_slot

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        self._rng = rng
        self._window = self._initial_window
        self._build_run(slot)

    def _probability_for(self, slot: int) -> float:
        # Advance the cursor to the phase covering this slot; rebuild the run
        # (doubling the window) when the current run is exhausted.
        while self._cursor < len(self._phases) and self._phases[self._cursor][1] <= slot:
            self._cursor += 1
        if self._cursor >= len(self._phases):
            self._window *= 2
            if self._max_window is not None:
                self._window = min(self._window, self._max_window)
            self._build_run(slot)
        first_slot, _, probability = self._phases[self._cursor]
        if slot < first_slot:
            return 0.0
        return probability

    def wants_to_broadcast(self, slot: int) -> bool:
        assert self._rng is not None
        probability = self._probability_for(slot)
        return bool(self._rng.random() < probability)

    def on_feedback(
        self, slot: int, feedback: Feedback, broadcast: bool, success_was_own: bool
    ) -> None:
        # The run schedule is time-driven; feedback only matters through the
        # simulator removing the node once its own message succeeds.
        return None

    def spec_params(self) -> dict:
        return {
            "initial_window": self._initial_window,
            "max_window": self._max_window,
        }

    def lockstep_program(self) -> Optional[LockstepProgram]:
        if type(self) is not SawtoothBackoff:
            return None
        return SawtoothLockstepProgram(self._initial_window, self._max_window)


class SawtoothLockstepProgram(LockstepProgram):
    """Columnar sawtooth state: one (window, probability, phase-end) triple per node.

    The run/phase structure is advanced arithmetically: a node stepped at its
    current phase's end slot moves to the next phase (probability doubled) or,
    past the run's last phase, starts a new run with a doubled window — the
    same float arithmetic the per-node schedule builder uses, so probabilities
    are bit-identical.  Every active node draws exactly one ``random()``
    double per slot, as the reference ``wants_to_broadcast`` does.
    """

    def __init__(self, initial_window: int, max_window: Optional[int]) -> None:
        self._initial = initial_window
        self._max = max_window
        self._pool = None

    def compiled_tables(self, horizon: int) -> CompiledProgramTables:
        from ..sim import artifacts

        # Memoized process-wide: a pure function of the window parameters.
        key = ("sawtooth-tables", self._initial, self._max, horizon)
        return artifacts.cached_artifact(
            key,
            lambda: CompiledProgramTables.build(
                opcode=OP_SAWTOOTH,
                # [window, phase_end]
                int_state_width=2,
                float_state_width=1,  # [probability]
                prog_i=[self._initial, -1 if self._max is None else self._max],
            ),
        )

    def bind(self, trials: int, capacity: int, pool, horizon: int) -> None:
        self._pool = pool
        rows = trials * capacity
        self._window = np.zeros(rows, dtype=np.int64)
        self._prob = np.zeros(rows, dtype=np.float64)
        self._phase_end = np.zeros(rows, dtype=np.int64)

    def grow(self, trials: int, old_capacity: int, new_capacity: int) -> None:
        args = (trials, old_capacity, new_capacity)
        self._window = grow_flat_column(self._window, *args)
        self._prob = grow_flat_column(self._prob, *args)
        self._phase_end = grow_flat_column(self._phase_end, *args)

    @staticmethod
    def _phase_lengths(probabilities: np.ndarray) -> np.ndarray:
        # max(1, int(round(1.0 / p))) with numpy's banker's rounding —
        # identical to the scalar schedule builder.
        return np.maximum(
            np.int64(1), np.rint(1.0 / probabilities).astype(np.int64)
        )

    def arrive(self, rows: np.ndarray, slot: int | np.ndarray) -> None:
        self._window[rows] = self._initial
        probability = 1.0 / self._initial
        self._prob[rows] = probability
        self._phase_end[rows] = slot + max(1, int(round(1.0 / probability)))

    def step(self, rows: np.ndarray, slot: int) -> np.ndarray:
        advancing = (self._phase_end[rows] <= slot).nonzero()[0]
        if advancing.size:
            self._advance(rows[advancing], slot)
        uniforms = self._pool.doubles(rows)
        return uniforms < self._prob[rows]

    def _advance(self, rows: np.ndarray, slot: int) -> None:
        doubled = self._prob[rows] * 2.0
        new_run = doubled > 0.5 + 1e-12
        ramping = rows[~new_run]
        if ramping.size:
            probability = doubled[~new_run]
            self._prob[ramping] = probability
            self._phase_end[ramping] = slot + self._phase_lengths(probability)
        restarting = rows[new_run]
        if restarting.size:
            window = self._window[restarting] * 2
            if self._max is not None:
                window = np.minimum(window, np.int64(self._max))
            self._window[restarting] = window
            probability = 1.0 / window
            self._prob[restarting] = probability
            self._phase_end[restarting] = slot + self._phase_lengths(probability)

    def feedback(self, slot, rows, sends, trial_success, own_success) -> None:
        return None
