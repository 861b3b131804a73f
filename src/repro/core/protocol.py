"""The Chen–Jiang–Zheng three-phase contention-resolution protocol.

A node runs this algorithm from arrival until its message is delivered:

* **Phase 1 (SYNCHRONIZE).**  Arriving at slot ``l0``, the node runs
  ``(f/a)``-backoff on the virtual channel with the parity of ``l0`` until it
  hears a success in *any* slot ``l1`` (on either channel).  The node cannot
  simply listen, because it might be alone in the system.

* **Phase 2 (WAIT_CONTROL).**  Let ``α`` be the channel containing ``l1`` (the
  node's data channel).  The node runs ``(f/a)``-backoff on the other channel
  ``ᾱ`` starting from slot ``l1 + 1`` until it hears a success on ``ᾱ`` in
  some slot ``l2``.  That success synchronizes every node currently in Phase 2
  or Phase 3.

* **Phase 3 (BATCH).**  With anchor ``l3`` (initially ``l2``), the node runs
  ``h_ctrl``-batch on the channel with the parity of ``l3 + 1`` (the control
  channel) and ``h_data``-batch on the channel with the parity of ``l3 + 2``
  (the data channel).  When a success is heard on the control channel in slot
  ``l3'``, the node sets ``l3 = l3'`` and restarts Phase 3 — which, because
  the new anchor lies on the old control channel, automatically swaps the data
  and control roles.

A node halts as soon as its own message is transmitted (the simulator removes
it), so the protocol does not need an explicit "done" state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..channel.virtual import VirtualChannelView
from ..protocols.base import (
    LOCKSTEP_SENTINEL,
    OP_CJZ,
    CompiledProgramTables,
    LockstepProgram,
    Protocol,
    grow_flat_column,
    make_factory,
)
from ..types import ChannelParity, Feedback
from .parameters import AlgorithmParameters
from .phases import Phase
from .subroutines import HBackoff, HBatch

__all__ = [
    "CJZLockstepProgram",
    "ChenJiangZhengProtocol",
    "GlobalClockVariant",
    "cjz_factory",
]

#: Window offset of a Phase-3 row that holds no window: the row's read index
#: ``offset + slot`` is negative in every slot below 2**31.
_REPLAY = np.iinfo(np.int32).min


class ChenJiangZhengProtocol(Protocol):
    """The paper's algorithm, parameterized by the jamming budget function ``g``."""

    name = "chen-jiang-zheng"
    spec_kind = "cjz"

    def __init__(self, parameters: Optional[AlgorithmParameters] = None) -> None:
        self._params = parameters or AlgorithmParameters.from_g()
        self._rng: Optional[np.random.Generator] = None
        self._phase = Phase.SYNCHRONIZE
        # Phase 1 state
        self._phase1_view: Optional[VirtualChannelView] = None
        self._phase1_backoff: Optional[HBackoff] = None
        # Phase 2 state
        self._phase2_view: Optional[VirtualChannelView] = None
        self._phase2_backoff: Optional[HBackoff] = None
        # Phase 3 state
        self._ctrl_view: Optional[VirtualChannelView] = None
        self._data_view: Optional[VirtualChannelView] = None
        self._ctrl_batch: Optional[HBatch] = None
        self._data_batch: Optional[HBatch] = None
        self._phase3_restarts = 0

    # ------------------------------------------------------------------ state

    @property
    def parameters(self) -> AlgorithmParameters:
        return self._params

    @property
    def phase(self) -> Phase:
        return self._phase

    @property
    def phase3_restarts(self) -> int:
        return self._phase3_restarts

    def spec_params(self) -> dict:
        return self._params.to_spec_params()

    @property
    def control_parity(self) -> Optional[ChannelParity]:
        """Parity of the node's current control channel (Phase 2 and 3 only)."""
        if self._phase is Phase.WAIT_CONTROL and self._phase2_view is not None:
            return self._phase2_view.parity
        if self._phase is Phase.BATCH and self._ctrl_view is not None:
            return self._ctrl_view.parity
        return None

    # --------------------------------------------------------------- protocol

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        self._rng = rng
        self._phase = Phase.SYNCHRONIZE
        self._phase1_view = VirtualChannelView(anchor_slot=slot, same_parity=True)
        self._phase1_backoff = HBackoff(self._params.backoff_budget, rng)

    def _start_phase2(self, success_slot: int) -> None:
        """Enter Phase 2 after hearing the first success (at ``success_slot``)."""
        assert self._rng is not None
        self._phase = Phase.WAIT_CONTROL
        # The success channel (parity of success_slot) becomes the data
        # channel; Phase 2's backoff runs on the opposite channel, which is
        # exactly the channel containing success_slot + 1.
        self._phase2_view = VirtualChannelView(
            anchor_slot=success_slot + 1, same_parity=True
        )
        self._phase2_backoff = HBackoff(self._params.backoff_budget, self._rng)

    def _start_phase3(self, anchor_slot: int) -> None:
        """(Re)start Phase 3 with anchor ``l3 = anchor_slot``."""
        assert self._rng is not None
        if self._phase is Phase.BATCH:
            self._phase3_restarts += 1
        self._phase = Phase.BATCH
        self._ctrl_view = VirtualChannelView(anchor_slot=anchor_slot + 1, same_parity=True)
        self._data_view = VirtualChannelView(anchor_slot=anchor_slot + 2, same_parity=True)
        self._ctrl_batch = HBatch(self._params.ctrl_probability, self._rng)
        self._data_batch = HBatch(self._params.data_probability, self._rng)

    def wants_to_broadcast(self, slot: int) -> bool:
        if self._phase is Phase.SYNCHRONIZE:
            assert self._phase1_view is not None and self._phase1_backoff is not None
            if self._phase1_view.contains(slot):
                return self._phase1_backoff.should_send(
                    self._phase1_view.local_index(slot)
                )
            return False
        if self._phase is Phase.WAIT_CONTROL:
            assert self._phase2_view is not None and self._phase2_backoff is not None
            if self._phase2_view.contains(slot):
                return self._phase2_backoff.should_send(
                    self._phase2_view.local_index(slot)
                )
            return False
        # Phase 3: both batches run concurrently, one per virtual channel.
        assert self._ctrl_view is not None and self._data_view is not None
        assert self._ctrl_batch is not None and self._data_batch is not None
        if self._ctrl_view.contains(slot):
            return self._ctrl_batch.should_send(self._ctrl_view.local_index(slot))
        if self._data_view.contains(slot):
            return self._data_batch.should_send(self._data_view.local_index(slot))
        return False

    def on_feedback(
        self, slot: int, feedback: Feedback, broadcast: bool, success_was_own: bool
    ) -> None:
        if success_was_own or feedback is not Feedback.SUCCESS:
            return
        if self._phase is Phase.SYNCHRONIZE:
            self._start_phase2(slot)
        elif self._phase is Phase.WAIT_CONTROL:
            assert self._phase2_view is not None
            if self._phase2_view.contains(slot):
                self._start_phase3(slot)
        else:  # Phase 3
            assert self._ctrl_view is not None
            if self._ctrl_view.contains(slot):
                self._start_phase3(slot)

    # --------------------------------------------------------------- lockstep

    def lockstep_program(self) -> Optional[LockstepProgram]:
        # Only the exact bundled classes get a columnar program: a subclass
        # overriding any hook would silently diverge from the columnar replay.
        if type(self) not in (ChenJiangZhengProtocol, GlobalClockVariant):
            return None
        return CJZLockstepProgram(
            self._params, global_clock=type(self) is GlobalClockVariant
        )


class CJZLockstepProgram(LockstepProgram):
    """Columnar population state of the CJZ protocol for the lockstep kernel.

    One row per node, with the state columns:

    * ``phase`` — 1 (SYNCHRONIZE), 2 (WAIT_CONTROL) or 3 (BATCH);
    * ``anchor`` — the first slot of the backoff channel: the arrival slot
      in Phase 1, ``l1 + 1`` in Phase 2 (the next odd slot for the
      global-clock variant, which starts there);
    * ``anchor3`` — Phase 3's anchor ``l3`` (control channel at ``l3 + 1``);
    * ``stage`` / ``plan`` / ``plan_ptr`` / ``next_planned`` — the realized
      send plan of the current backoff stage, a sorted row of distinct
      local indices ended by the sentinel (entries after it are stale);
    * ``next_event`` — the absolute slot of the row's next stage entry or
      planned send, ``anchor + 2·(min(next_planned, 2^(stage+1)) − 1)``;
      the sentinel in Phase 3.

    Backoff is event-driven: a slot visits only the Phase-1/2 rows whose
    ``next_event`` is that slot, because between events the reference
    neither draws nor sends.  Stage 0 is entered when backoff starts (on
    arrival and at the Phase-2 restart): its one send is local index 1,
    which numpy draws on its zero-range path without consuming anything.
    All later stages entered in one slot draw their plans together, one
    :meth:`~repro.rng.NodeStreamPool.pow2_batch` round per plan index: in
    round ``j`` each row whose stage sends more than ``j`` times draws its
    ``j``-th value with its own exponent, so every stream is consumed in
    the reference's order.

    In Phase 3 a row sends in each slot when that slot's ``random()``
    double is below one gather from the interleaved ``h``-batch table,
    indexed by ``t = slot − l3``: odd ``t`` is control local
    ``(t + 1) / 2``, even ``t`` data local ``t / 2``.  The table holds the
    floats the scalar ``HBatch.probability`` calls return, so comparisons
    are float-identical.  Feedback moves only ``l3``, never which double a
    slot reads, so a row entering Phase 3 draws its next doubles natively
    (:meth:`~repro.rng.NodeStreamPool.native_doubles`) into a window and
    reads one per slot; at the window's end it draws the next window, in
    bulk with the rows whose windows end there.  Its pool state stays
    where it entered, and no Phase-3 draw reads the 32-bit half a backoff
    draw may have left buffered.  The windows share one pool of
    ``DRAW_BLOCK_ELEMENTS // 2`` doubles' worth (1,024 windows of 256,
    about 2 MB), allocated at the first entry.  A row holds its window
    until it succeeds (a row whose trial stops first, to the run's end),
    and a row that enters while every window is held replays its doubles
    slot by slot (:meth:`~repro.rng.NodeStreamPool.doubles`).  The bound
    caps the memory of groups with thousands of Phase-3 rows, where
    replay's numpy calls are shared by many rows per slot while each
    window costs its row one native call.
    """

    def __init__(
        self, parameters: AlgorithmParameters, global_clock: bool = False
    ) -> None:
        self._params = parameters
        self._global_clock = global_clock
        self._pool = None

    # ----------------------------------------------------------------- setup

    def _build_tables(self, horizon: int):
        """Stage counts and ``h``-batch tables shared with the compiled tier.

        Memoized process-wide by the spec-derived parameters and the horizon
        (:mod:`repro.sim.artifacts`): the scalar probability calls dominate
        dispatch cost for repeated sweep points over equivalent protocols,
        and the tables are pure functions of ``(params, horizon)``.
        Parameters outside the spec surface (``from_f``, hand-assembled
        rates) have no stable identity and build uncached.  All consumers
        treat the returned arrays as read-only.
        """
        from ..errors import SpecError
        from ..sim import artifacts

        try:
            key = (
                "cjz-tables",
                artifacts.canonical_key(self._params.to_spec_params()),
                horizon,
            )
        except SpecError:
            return self._compute_tables(horizon)
        return artifacts.cached_artifact(
            key, lambda: self._compute_tables(horizon)
        )

    def _compute_tables(self, horizon: int):
        """Stage counts clamp exactly as ``HBackoff._enter_stage`` does; the
        probability tables are built with the same scalar calls
        ``HBatch.probability`` would make, so both the columnar and the
        compiled `uniform < p` comparisons are float-identical.  The last
        table interleaves the other two by ``t = slot − l3``.
        """
        params = self._params
        stage_counts = [
            min(params.backoff_budget(1 << k), 1 << k) for k in range(32)
        ]
        # index = local slot index (0 unused).
        size = horizon + 2
        ctrl_table = np.zeros(size)
        data_table = np.zeros(size)
        ctrl, data = params.ctrl_probability, params.data_probability
        ctrl_table[1:] = [ctrl(i) for i in range(1, size)]
        data_table[1:] = [data(i) for i in range(1, size)]
        phase3_table = np.zeros(horizon + 1)
        phase3_table[1::2] = ctrl_table[1 : 1 + (horizon + 1) // 2]
        phase3_table[2::2] = data_table[1 : 1 + horizon // 2]
        return stage_counts, ctrl_table, data_table, phase3_table

    def compiled_tables(self, horizon: int) -> CompiledProgramTables:
        def build() -> CompiledProgramTables:
            stage_counts, ctrl_table, data_table, _ = self._build_tables(horizon)
            return CompiledProgramTables.build(
                opcode=OP_CJZ,
                # [phase, anchor1, anchor2, anchor3, stage, plan_ptr,
                #  next_planned]
                int_state_width=7,
                float_state_width=0,
                prog_i=[1 if self._global_clock else 0],
                plan_width=max(stage_counts) + 1,
                stage_counts=stage_counts,
                table_ctrl=ctrl_table,
                table_data=data_table,
            )

        from ..errors import SpecError
        from ..sim import artifacts

        try:
            key = (
                "cjz-compiled-tables",
                artifacts.canonical_key(self._params.to_spec_params()),
                self._global_clock,
                horizon,
            )
        except SpecError:
            return build()
        return artifacts.cached_artifact(key, build)

    def bind(self, trials: int, capacity: int, pool, horizon: int) -> None:
        # Imported lazily: the simulation layer imports this module.
        from ..protocols.base import _MIN_DRAW_WINDOW
        from ..sim.backends.studysupport import DRAW_BLOCK_ELEMENTS

        self._pool = pool
        self._horizon = horizon
        stage_counts, _, _, self._phase3_table = self._build_tables(horizon)
        self._stage_counts = np.asarray(stage_counts, dtype=np.int64)
        rows = trials * capacity
        self._phase = np.zeros(rows, dtype=np.int8)
        self._anchor = np.zeros(rows, dtype=np.int64)
        self._anchor3 = np.zeros(rows, dtype=np.int64)
        self._stage = np.zeros(rows, dtype=np.int64)
        self._plan = np.full(
            (rows, max(stage_counts) + 1), LOCKSTEP_SENTINEL, np.int64
        )
        self._plan_ptr = np.zeros(rows, dtype=np.int64)
        self._next_planned = np.full(rows, LOCKSTEP_SENTINEL, dtype=np.int64)
        self._next_event = np.full(rows, LOCKSTEP_SENTINEL, dtype=np.int64)
        # Phase-3 windows: window ``w`` is ``_doubles[w * stride :][:width]``
        # and a row holding it reads slot ``s`` at ``_base[row] + s``
        # (negative for a row that replays).  The stride leaves one unread
        # double after each window, so the index a row reaches at its
        # window's end names neither its window's start nor the next one's.
        self._width = _MIN_DRAW_WINDOW
        self._stride = self._width + 1
        windows = max(1, DRAW_BLOCK_ELEMENTS // 2 // self._width)
        self._doubles = np.empty(0)  # allocated at the first entry
        self._base = np.full(rows, _REPLAY, dtype=np.int32)
        self._skip = np.zeros(windows, dtype=np.int64)  # draws before column 0
        self._free = np.arange(windows - 1, -1, -1)  # a stack, top at the end
        self._free_count = windows
        self._replaying = 0  # rows that entered without a window, not done
        self._window_ends: set = set()

    def grow(self, trials: int, old_capacity: int, new_capacity: int) -> None:
        args = (trials, old_capacity, new_capacity)
        self._phase = grow_flat_column(self._phase, *args)
        self._anchor = grow_flat_column(self._anchor, *args)
        self._anchor3 = grow_flat_column(self._anchor3, *args)
        self._stage = grow_flat_column(self._stage, *args)
        self._plan = grow_flat_column(self._plan, *args, fill=LOCKSTEP_SENTINEL)
        self._plan_ptr = grow_flat_column(self._plan_ptr, *args)
        self._next_planned = grow_flat_column(
            self._next_planned, *args, fill=LOCKSTEP_SENTINEL
        )
        self._next_event = grow_flat_column(
            self._next_event, *args, fill=LOCKSTEP_SENTINEL
        )
        self._base = grow_flat_column(self._base, *args, fill=_REPLAY)

    # ---------------------------------------------------------------- arrive

    def arrive(self, rows: np.ndarray, slot: int | np.ndarray) -> None:
        if self._global_clock:
            # GlobalClockVariant: straight to Phase 2 on the globally known
            # control channel, anchored at the next odd slot.
            self._phase[rows] = 2
            anchor = slot | 1
        else:
            self._phase[rows] = 1
            anchor = slot
        self._start_backoff(rows, anchor)

    def _start_backoff(self, rows: np.ndarray, anchor) -> None:
        """Enter backoff stage 0 on the channel whose first slot is ``anchor``.

        Every budget is at least 1, so stage 0's plan is local index 1, set
        here without a draw.
        """
        self._anchor[rows] = anchor
        self._stage[rows] = 0
        self._plan[rows, :2] = (1, LOCKSTEP_SENTINEL)
        self._plan_ptr[rows] = 0
        self._next_planned[rows] = 1
        self._next_event[rows] = anchor

    # ------------------------------------------------------------------ step

    def step(self, rows: np.ndarray, slot: int) -> np.ndarray:
        batching = (self._phase[rows] == 3).nonzero()[0]
        if batching.size == len(rows):  # Phase 3 has no backoff events
            return self._batch_sends(rows, slot)
        sends = np.zeros(len(rows), dtype=bool)
        due = (self._next_event[rows] == slot).nonzero()[0]
        if due.size:
            self._step_backoff(rows, sends, due, slot)
        if batching.size:
            sends[batching] = self._batch_sends(rows[batching], slot)
        return sends

    def _batch_sends(self, rows: np.ndarray, slot: int) -> np.ndarray:
        # Phase 3: the control and data batches together cover every slot
        # after l3, so exactly one of them draws in each.
        probability = self._phase3_table[slot - self._anchor3[rows]]
        if slot in self._window_ends:
            self._refill(rows, slot)
        index = self._base[rows] + slot
        if self._replaying:
            replay = (index < 0).nonzero()[0]
            if replay.size:
                uniforms = np.empty(len(rows))
                uniforms[replay] = self._pool.doubles(rows[replay])
                held = (index >= 0).nonzero()[0]
                uniforms[held] = self._doubles[index[held]]
                return uniforms < probability
        return self._doubles[index] < probability

    def _enter_batch(self, rows: np.ndarray, slot: int) -> None:
        """Start Phase 3 at ``slot``: each row takes a free window of its
        next doubles, and the rows left over when none is free replay."""
        self._phase[rows] = 3
        self._anchor3[rows] = slot
        self._next_event[rows] = LOCKSTEP_SENTINEL
        if slot >= self._horizon:
            return  # no Phase-3 slot follows
        if not self._doubles.size:
            self._doubles = np.empty(self._free.size * self._stride)
        taken = min(rows.size, self._free_count)
        self._replaying += rows.size - taken
        if taken:
            self._free_count -= taken
            windows = self._free[self._free_count : self._free_count + taken]
            self._fill(rows[:taken], windows, slot + 1, 0)

    def _fill(
        self, rows: np.ndarray, windows: np.ndarray, origin: int, skip: int
    ) -> None:
        """Draw ``windows`` for ``rows``: their doubles from the ``skip``-th
        since Phase-3 entry on, the first read in slot ``origin``."""
        width = self._width
        drawn = min(width, self._horizon + 1 - origin)
        grid = self._doubles.reshape(-1, self._stride)[:, :drawn]
        self._pool.native_doubles(rows, [grid[w] for w in windows.tolist()], skip)
        self._base[rows] = windows * self._stride - origin
        self._skip[windows] = skip
        if origin + width <= self._horizon:
            self._window_ends.add(origin + width)

    def _refill(self, rows: np.ndarray, slot: int) -> None:
        """Draw the next windows of the ``rows`` whose windows end at
        ``slot``, grouped by the number of doubles each has drawn."""
        self._window_ends.discard(slot)
        index = self._base[rows] + slot
        windows, column = np.divmod(index, self._stride)
        ending = ((column == self._width) & (index >= 0)).nonzero()[0]
        if not ending.size:
            return
        ending_rows, windows = rows[ending], windows[ending]
        skips = self._skip[windows] + self._width
        for skip in np.unique(skips).tolist():
            group = skips == skip
            self._fill(ending_rows[group], windows[group], slot, skip)

    def _release(self, winners: np.ndarray, slot: int) -> None:
        """Free the windows of the rows that succeeded in ``slot``."""
        index = self._base[winners] + slot
        held = index >= 0
        freed = index[held] // self._stride
        if freed.size:
            top = self._free_count
            self._free[top : top + freed.size] = freed
            self._free_count = top + freed.size
        if self._replaying:
            self._replaying -= np.count_nonzero(
                ~held & (self._phase[winners] == 3)
            )

    def _step_backoff(
        self, rows: np.ndarray, sends: np.ndarray, due: np.ndarray, slot: int
    ) -> None:
        """Stage entries and planned sends of the rows whose event is ``slot``."""
        selected = rows[due]
        anchor = self._anchor[selected]
        local = ((slot + 2) - anchor) >> 1
        stage = self._stage[selected]
        stage_end = 2 << stage  # 2**(stage + 1)
        entering = (local == stage_end).nonzero()[0]
        if entering.size:
            stage[entering] += 1
            stage_end[entering] <<= 1
            self._enter_stages(selected[entering], stage[entering])
        next_planned = self._next_planned[selected]
        hits = (next_planned == local).nonzero()[0]
        if hits.size:
            hit_rows = selected[hits]
            pointer = self._plan_ptr[hit_rows] + 1
            self._plan_ptr[hit_rows] = pointer
            next_planned[hits] = self._plan[hit_rows, pointer]
            self._next_planned[hit_rows] = next_planned[hits]
            sends[due[hits]] = True
        self._next_event[selected] = anchor + 2 * (
            np.minimum(next_planned, stage_end) - 1
        )

    def _enter_stages(self, rows: np.ndarray, stages: np.ndarray) -> None:
        """Draw and store the send plans of freshly entered backoff stages.

        Round ``j`` draws the ``j``-th value of every row whose stage sends
        more than ``j`` times, each row with its own exponent, so every row
        consumes its stage's draws in order.
        """
        counts = self._stage_counts[stages]
        width = int(counts.max())
        draws = np.full((width + 1, len(rows)), LOCKSTEP_SENTINEL, np.int64)
        for j in range(width):
            drawing = (counts > j).nonzero()[0]
            if drawing.size == len(rows):
                draws[j] = self._pool.pow2_batch(rows, stages, 1)[0]
            else:
                draws[j, drawing] = self._pool.pow2_batch(
                    rows[drawing], stages[drawing], 1
                )[0]
        if width > 1:
            draws.sort(axis=0)
            # Duplicates collapse (drawing with replacement); push them
            # past the end so each plan row is sorted and unique.
            duplicate = (draws[1:] == draws[:-1]) & (
                draws[1:] != LOCKSTEP_SENTINEL
            )
            if np.count_nonzero(duplicate):
                draws[1:][duplicate] = LOCKSTEP_SENTINEL
                draws.sort(axis=0)
        self._plan[rows, : width + 1] = draws.T
        self._plan_ptr[rows] = 0
        self._next_planned[rows] = draws[0]
        self._stage[rows] = stages

    # -------------------------------------------------------------- feedback

    def feedback(
        self,
        slot: int,
        rows: np.ndarray,
        sends: np.ndarray,
        trial_success: np.ndarray,
        own_success: np.ndarray,
    ) -> None:
        if not np.count_nonzero(trial_success):
            return
        if self._doubles.size:
            self._release(rows[own_success], slot)
        heard = trial_success & ~own_success
        if not np.count_nonzero(heard):
            return
        selected = rows[heard]
        phase = self._phase[selected]
        starters = selected[phase == 1]
        if starters.size:
            # Phase 2's backoff restarts on the channel of slot + 1.
            self._phase[starters] = 2
            self._start_backoff(starters, slot + 1)
        waiting = selected[phase == 2]
        if waiting.size:
            anchor = self._anchor[waiting]
            synchronized = waiting[
                ((anchor & 1) == (slot & 1)) & (slot >= anchor)
            ]
            if synchronized.size:
                self._enter_batch(synchronized, slot)
        batching = selected[phase == 3]
        if batching.size:
            # A success on the control channel (odd t) restarts Phase 3.
            restart = ((slot - self._anchor3[batching]) & 1) == 1
            self._anchor3[batching[restart]] = slot


class GlobalClockVariant(ChenJiangZhengProtocol):
    """Ablation: assume a global clock so channel roles never need negotiating.

    With a global clock the odd channel can simply be declared the control
    channel and the even channel the data channel, removing the need for
    Phase 1 (the role-agreement phase).  A node starts directly in Phase 2,
    running backoff on the (globally known) control channel.  Comparing this
    variant against the full protocol isolates the cost of reaching agreement
    on channel roles without a clock.
    """

    name = "cjz-global-clock"
    spec_kind = "cjz-global-clock"

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        super().on_arrival(slot, rng)
        # Jump straight to Phase 2 with the odd channel (global parity) as the
        # control channel: anchor the Phase-2 view at the next odd slot.
        next_odd = slot if slot % 2 == 1 else slot + 1
        self._phase = Phase.WAIT_CONTROL
        self._phase2_view = VirtualChannelView(anchor_slot=next_odd, same_parity=True)
        self._phase2_backoff = HBackoff(self._params.backoff_budget, rng)


def cjz_factory(
    parameters: Optional[AlgorithmParameters] = None,
    global_clock: bool = False,
):
    """Protocol factory for the simulator (fresh instance per arriving node)."""
    params = parameters or AlgorithmParameters.from_g()
    cls = GlobalClockVariant if global_clock else ChenJiangZhengProtocol
    return make_factory(cls, params)
