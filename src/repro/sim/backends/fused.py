"""Fused multi-study dispatch: many sweep points, one lockstep run.

A sweep executes one :class:`~repro.spec.StudySpec` per dispatch, so a
100-point grid pays 100× the fixed costs — probe construction, driver
compilation, pool seeding, the per-slot Python overhead of the lockstep
loop.  This module stacks *compatible* points along the existing trials
axis and executes them as ONE lockstep (or compiled) run:

* :func:`fusion_key` decides compatibility — same canonical protocol spec,
  early-stop policy and columnar adversary driver family (scheduled,
  chaser or generic; oblivious and reactive-jamming points are both
  scheduled).  Horizons may differ (each trial stops at its own), except
  where the compiled tier could take the group: it runs one horizon and
  lowers oblivious and reactive jamming as separate modes, so there the
  key keeps both apart;
* :func:`plan_fusion_groups` partitions a plan's pending points into
  groups, bounded by the lockstep kernel's block trial budget at each
  group's largest horizon;
* :func:`run_fused_group` executes one group and splits the results back
  into ordinary per-spec :class:`~repro.sim.runner.TrialStudy` objects —
  each member reducing its own metric pipeline and, when streaming,
  releasing its own columns — so store/dedupe semantics are untouched.

Bit-for-bit reproducibility
---------------------------

Fusion changes *layout*, never *streams*.  Each member study keeps its own
:class:`~repro.sim.backends.studysupport.SeedPlan` (trial ``t`` of member
``m`` derives exactly the states its solo run would) and its own adversary
driver, built with the member's plan and horizon (consuming member streams
exactly as the solo path does) and padded with empty slots up to the run's
horizon; the merged driver is their concatenation, and each member's
results are emitted from its own trial slice.  The group binds one program at its largest horizon; every
bundled program's tables agree, below that horizon, with the tables it
binds at a shorter one.  The shared :class:`~repro.rng.NodeStreamPool`
draws per-row independent streams, the slot loop's bookkeeping is
per-trial independent, and a shared capacity or a longer tail past one
member's horizon or drain point changes nothing a trial can observe.  The
planner never mixes protocol parameters, but :func:`run_fused_group` still
runs a group it is handed that does: each member keeps its own unmodified
:class:`~repro.protocols.base.LockstepProgram`, driven through a
row-translating composite.  The property suite enforces equality against
per-point serial execution and the reference kernel for mixed grids.

A ``None`` return anywhere means "fall back to per-point dispatch"; the
group's members then run exactly as they would have without fusion.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ... import faults
from ...adversary.adaptive import AdaptiveSuccessChaser
from ...adversary.columnar import (
    AdaptiveChaserLockstepDriver,
    GenericLockstepDriver,
    LockstepAdversaryDriver,
    ScheduledLockstepDriver,
    _reactive_schedulable,
)
from ...rng import TrialSeedBatch
from ..artifacts import canonical_key, streams_verified
from ..engine import SimulatorConfig
from .compiled import (
    _kernels_for,
    _run_block,
    compiled_streams_ok,
    interpreter_mode,
)
from .lockstep import _BLOCK_TRIAL_SLOTS, _LockstepRun, build_lockstep_driver
from .studysupport import SeedPlan

__all__ = ["fusion_budget", "fusion_key", "plan_fusion_groups", "run_fused_group"]

#: Backends a fused run may substitute for (results are backend-invariant;
#: explicit batched-study, reference and per-trial pins are honoured by not
#: fusing, so a pin the study cannot take still raises).
_FUSIBLE_BACKENDS = ("auto", "lockstep", "lockstep-jit")

#: Backends under which the group may take the compiled (lockstep-jit) tier.
_COMPILED_BACKENDS = ("auto", "lockstep-jit")


# ---------------------------------------------------------------- grouping


def _driver_family(adversary) -> str:
    """Which columnar driver family the adversary will build.

    Classified from a throwaway instance (never given a generator, so no
    stream is consumed).  Mirrors the ladder in
    :func:`~repro.sim.backends.lockstep.build_lockstep_driver`: oblivious
    adversaries and oblivious arrivals under reactive jamming both build
    the scheduled driver.  The merge re-checks the *actual* built driver
    types, so a misprediction can only cause a fallback, never a wrong
    merge.
    """
    if adversary.precompilable or _reactive_schedulable(adversary):
        return "scheduled"
    if type(adversary) is AdaptiveSuccessChaser:
        return "chaser"
    return "generic"


def fusion_key(spec) -> Optional[Tuple]:
    """The compatibility group of a spec, or ``None`` when it cannot fuse.

    Points fuse when they share the canonical protocol spec (one program),
    the early-stop policy and the adversary driver family (one merged
    driver), so oblivious and reactive-jamming points fuse together.
    Horizons may differ: every trial stops at its own.  Only when the
    compiled tier could take the group — interpreter on, program with
    compiled tables, backend allowing ``lockstep-jit`` — does the key keep
    the horizon, since that tier runs one horizon, and whether the
    adversary is oblivious, since it lowers a static jam schedule and a
    reactive jammer as two modes.  Trace retention, unseeded studies and
    explicit batched-study, reference and per-trial backend pins opt out;
    under ``auto`` the age-profile protocols fuse like any other program.
    """
    if spec.keep_trace or spec.seed is None or spec.horizon >= 2**31:
        return None
    if spec.backend not in _FUSIBLE_BACKENDS:
        return None
    try:
        program = spec.protocol.build()().lockstep_program()
        if program is None:
            return None
        adversary = spec.adversary.factory(spec.horizon)()
        key = (
            canonical_key(spec.protocol.to_dict()),
            spec.stop_when_drained,
            _driver_family(adversary),
        )
    except Exception:
        return None
    if (
        spec.backend in _COMPILED_BACKENDS
        and interpreter_mode() != "off"
        and program.compiled_tables(spec.horizon) is not None
    ):
        key += (spec.horizon, adversary.precompilable)
    return key


def fusion_budget(horizon: int) -> int:
    """Max stacked trials per fused run (one lockstep block by construction)."""
    return max(1, _BLOCK_TRIAL_SLOTS // (horizon + 1))


def plan_fusion_groups(
    indexed_specs: Sequence[Tuple[int, Any]],
) -> List[List[Tuple[int, Any]]]:
    """Partition pending points into fusable groups of at least two.

    ``indexed_specs`` is ``[(plan_index, spec), ...]``; points that cannot
    fuse (or end up alone in their group) are simply not returned and run
    per-point as before.  Groups are additionally chunked so one fused run
    stays within the lockstep kernel's block trial budget — a fused run is
    one block by construction.
    """
    buckets: Dict[Tuple, List[Tuple[int, Any]]] = {}
    for index, spec in indexed_specs:
        key = fusion_key(spec)
        if key is None:
            continue
        buckets.setdefault(key, []).append((index, spec))

    groups: List[List[Tuple[int, Any]]] = []
    for members in buckets.values():
        chunk: List[Tuple[int, Any]] = []
        chunk_trials = chunk_horizon = 0
        for member in members:
            spec = member[1]
            if spec.trials > fusion_budget(spec.horizon):
                continue  # the solo path blocks internally; don't fuse it
            # One fused run binds every trial at the chunk's largest horizon.
            horizon = max(spec.horizon, chunk_horizon)
            if chunk and chunk_trials + spec.trials > fusion_budget(horizon):
                if len(chunk) >= 2:
                    groups.append(chunk)
                chunk, chunk_trials, horizon = [], 0, spec.horizon
            chunk.append(member)
            chunk_trials += spec.trials
            chunk_horizon = horizon
        if len(chunk) >= 2:
            groups.append(chunk)
    return groups


# ----------------------------------------------------------- seed stacking


class _FusedSeedPlan:
    """Per-member seed plans presented as one plan over stacked trials.

    Member ``m``'s trials occupy the contiguous block starting at
    ``offsets[m]``; every state derivation delegates to the member's own
    :class:`SeedPlan`, so fused trial ``offsets[m] + t`` derives exactly
    the states member ``m``'s solo trial ``t`` would.
    """

    def __init__(self, plans: List[SeedPlan]) -> None:
        self._plans = plans
        counts = np.array([plan.trials for plan in plans], dtype=np.int64)
        self._offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        self._trials = int(self._offsets[-1])

    @property
    def trials(self) -> int:
        return self._trials

    @property
    def fast(self) -> bool:
        return all(plan.fast for plan in self._plans)

    def member_of_trials(self, trial_ids: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._offsets, trial_ids, side="right") - 1

    def node_states_pairs(
        self, trial_ids: np.ndarray, node_ids: np.ndarray
    ) -> Optional[np.ndarray]:
        trial_ids = np.asarray(trial_ids, dtype=np.int64)
        node_ids = np.asarray(node_ids, dtype=np.int64)
        count = len(trial_ids)
        members = self.member_of_trials(trial_ids)
        pieces: Dict[int, np.ndarray] = {}
        for m in np.unique(members).tolist():
            mask = members == m
            states = self._plans[m].node_states_pairs(
                trial_ids[mask] - self._offsets[m], node_ids[mask]
            )
            if states is None:
                return None
            pieces[m] = states
        if not pieces:
            return np.zeros((0, 4), dtype=np.uint64)
        template = next(iter(pieces.values()))
        out = np.empty((count,) + template.shape[1:], dtype=template.dtype)
        for m, states in pieces.items():
            out[members == m] = states
        return out


# ------------------------------------------------------- program stacking


class _OffsetStreamPool:
    """A member program's view of the shared pool, shifted by its trial block.

    Member-local row ``(t, n)`` maps to global row
    ``(t + offset_trials) * capacity + n = local + offset_trials * capacity``,
    so every draw is a constant row shift — the underlying per-row streams
    are untouched.
    """

    def __init__(self, pool, offset_trials: int) -> None:
        self._pool = pool
        self._offset_trials = offset_trials
        self._shift = 0

    def set_capacity(self, capacity: int) -> None:
        self._shift = self._offset_trials * capacity

    def doubles(self, rows):
        return self._pool.doubles(rows + self._shift)

    def native_doubles(self, rows, out, skip=0):
        self._pool.native_doubles(rows + self._shift, out, skip)

    def next_u32(self, rows):
        return self._pool.next_u32(rows + self._shift)

    def bounded_u32(self, rows, ranges):
        return self._pool.bounded_u32(rows + self._shift, ranges)

    def pow2_batch(self, rows, k, count):
        return self._pool.pow2_batch(rows + self._shift, k, count)

    def bounded_scalar(self, row, bound):
        return self._pool.bounded_scalar(int(row) + self._shift, bound)


class _CompositeLockstepProgram:
    """Per-member programs behind the single-program lockstep interface.

    Used when a group's members share a protocol *family* but not exact
    parameters: each member keeps its own unmodified program (its own
    tables, windows, plan widths) over its own contiguous trial block, and
    every kernel call is split by row membership.  Per-row RNG streams are
    independent, so routing a row to its member's program preserves each
    row's draw order exactly.
    """

    def __init__(self, programs: List[Any], member_trials: List[int]) -> None:
        self._programs = programs
        self._member_trials = [int(t) for t in member_trials]
        self._trial_offsets = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.cumsum(np.asarray(self._member_trials, dtype=np.int64)),
            )
        )
        self._capacity = 0
        self._adapters: List[_OffsetStreamPool] = []

    def compiled_tables(self, horizon: int):
        return None  # heterogeneous parameters never lower to one table set

    def bind(self, trials: int, capacity: int, pool, horizon: int) -> None:
        self._capacity = capacity
        self._adapters = []
        for m, program in enumerate(self._programs):
            adapter = _OffsetStreamPool(pool, int(self._trial_offsets[m]))
            adapter.set_capacity(capacity)
            self._adapters.append(adapter)
            program.bind(self._member_trials[m], capacity, adapter, horizon)

    def grow(self, trials: int, old_capacity: int, new_capacity: int) -> None:
        self._capacity = new_capacity
        for m, program in enumerate(self._programs):
            self._adapters[m].set_capacity(new_capacity)
            program.grow(self._member_trials[m], old_capacity, new_capacity)

    def _members_of_rows(self, rows: np.ndarray) -> np.ndarray:
        return (
            np.searchsorted(
                self._trial_offsets, rows // self._capacity, side="right"
            )
            - 1
        )

    def arrive(self, rows: np.ndarray, slot: int | np.ndarray) -> None:
        members = self._members_of_rows(rows)
        slots = np.broadcast_to(slot, rows.shape)
        for m in np.unique(members).tolist():
            mask = members == m
            local = rows[mask] - self._trial_offsets[m] * self._capacity
            self._programs[m].arrive(local, slots[mask])

    def step(self, rows: np.ndarray, slot: int) -> np.ndarray:
        sends = np.zeros(len(rows), dtype=bool)
        members = self._members_of_rows(rows)
        for m in np.unique(members).tolist():
            mask = (members == m).nonzero()[0]
            local = rows[mask] - self._trial_offsets[m] * self._capacity
            sends[mask] = self._programs[m].step(local, slot)
        return sends

    def feedback(
        self, slot, rows, sends, trial_success, own_success
    ) -> None:
        members = self._members_of_rows(rows)
        for m in np.unique(members).tolist():
            mask = (members == m).nonzero()[0]
            local = rows[mask] - self._trial_offsets[m] * self._capacity
            self._programs[m].feedback(
                slot, local, sends[mask], trial_success[mask], own_success[mask]
            )


# ---------------------------------------------------------- driver merging


def _stack_schedules(schedules: List[np.ndarray], horizon: int) -> np.ndarray:
    """Member schedules stacked along trials, padded with empty slots."""
    out = np.zeros(
        (sum(len(s) for s in schedules), horizon + 1), dtype=schedules[0].dtype
    )
    row = 0
    for schedule in schedules:
        out[row : row + len(schedule), : schedule.shape[1]] = schedule
        row += len(schedule)
    return out


def _merge_drivers(
    drivers: List[LockstepAdversaryDriver], horizon: int
) -> Optional[LockstepAdversaryDriver]:
    """One driver over the stacked trials, or ``None`` when types mix.

    All three driver families keep strictly per-trial state (schedules,
    counters, adversary instances), so merging is concatenation along the
    trial axis, each schedule padded with empty slots up to the run's
    ``horizon``; merged mutable state starts zeroed exactly as each
    member's fresh driver's does.
    """
    first = type(drivers[0])
    if any(type(driver) is not first for driver in drivers):
        return None
    adversaries = [a for driver in drivers for a in driver.adversaries]
    if first is ScheduledLockstepDriver:
        return ScheduledLockstepDriver(
            adversaries,
            _stack_schedules([d.arrival_schedule for d in drivers], horizon),
            _stack_schedules([d._jammed for d in drivers], horizon),
            np.concatenate([d._fraction for d in drivers]),
            np.concatenate([d._burst for d in drivers]),
        )
    if first is AdaptiveChaserLockstepDriver:
        return AdaptiveChaserLockstepDriver(adversaries)
    if first is GenericLockstepDriver:
        return GenericLockstepDriver(adversaries)
    return None


# --------------------------------------------------------------- execution


def run_fused_group(specs: Sequence[Any]) -> Optional[List[Any]]:
    """Execute compatible specs as one run; per-spec studies in order.

    Returns ``None`` when the group turns out not to be fusable after all
    (callers fall back to per-point dispatch).  Exceptions — including
    injected ``fused-group`` faults — propagate; nothing has been stored,
    so sibling points are unaffected and re-run per-point.
    """
    if not specs:
        return []
    faults.active_plan().maybe_raise("fused-group", points=len(specs))
    if not streams_verified():
        return None
    horizons = [spec.horizon for spec in specs]
    config = SimulatorConfig(
        horizon=max(horizons),
        keep_trace=False,
        stop_when_drained=specs[0].stop_when_drained,
    )

    plans: List[SeedPlan] = []
    drivers: List[LockstepAdversaryDriver] = []
    programs: List[Any] = []
    protocol_name = "protocol"
    uniform = len(
        {canonical_key(spec.protocol.to_dict()) for spec in specs}
    ) == 1
    for spec in specs:
        plan = SeedPlan.build(TrialSeedBatch(spec.seed, spec.trials))
        if not plan.fast:
            return None
        # The member's driver is built with the member's own plan and
        # horizon, so its setup/precompile consume the member's streams
        # exactly as a solo run would.
        driver = build_lockstep_driver(
            spec.adversary.factory(spec.horizon),
            replace(config, horizon=spec.horizon),
            plan,
        )
        if driver is None:
            return None
        plans.append(plan)
        drivers.append(driver)
        if not uniform or not programs:
            factory = spec.protocol.build()
            program = factory().lockstep_program()
            if program is None:
                return None
            programs.append(program)
            protocol_name = (
                getattr(factory, "protocol_name", None) or "protocol"
            )

    merged = _merge_drivers(drivers, config.horizon)
    del drivers  # the merged driver holds copies of their schedules
    if merged is None:
        return None
    fused_plan = _FusedSeedPlan(plans)
    if uniform:
        program: Any = programs[0]
    else:
        program = _CompositeLockstepProgram(
            programs, [plan.trials for plan in plans]
        )

    start = time.perf_counter()
    results = None
    mixed = len(set(horizons)) > 1
    members = [spec.trials for spec in specs]
    if (
        uniform
        and not mixed
        and all(spec.backend in _COMPILED_BACKENDS for spec in specs)
    ):
        results = _run_compiled_fused(
            program, merged, config, fused_plan, protocol_name, members
        )
    if results is None:
        trial_horizons = np.repeat(horizons, members) if mixed else None
        results = _LockstepRun(
            program,
            merged,
            config,
            fused_plan,
            protocol_name,
            trial_horizons,
            members,
        ).execute()
    elapsed = time.perf_counter() - start
    per_trial = elapsed / max(1, len(results))
    for result in results:
        result.wall_time_seconds = per_trial

    return _split_studies(specs, results)


def _run_compiled_fused(
    program, driver, config, fused_plan, protocol_name, members
) -> Optional[List[Any]]:
    """Try the lockstep-jit tier on the merged run (uniform groups only).

    Any bail-out returns ``None`` and the caller runs the numpy fused path
    with the same (still untouched) merged driver — the interpreter only
    ever reads driver state into its own arrays before running.  Each
    member is emitted from its own trial slice, as on the numpy path.
    """
    mode = interpreter_mode()
    if mode == "off" or not compiled_streams_ok(mode):
        return None
    tables = program.compiled_tables(config.horizon)
    if tables is None:
        return None
    kernels = _kernels_for(mode)
    if kernels is None:
        return None
    return _run_block(
        kernels,
        mode,
        None,
        config,
        fused_plan,
        tables,
        protocol_name,
        driver=driver,
        members=members,
    )


def _split_studies(specs: Sequence[Any], results: List[Any]) -> List[Any]:
    """Slice the stacked results back into per-spec TrialStudy objects.

    Results come out of the lockstep emit in trial order, so member ``m``
    owns the contiguous slice starting at its trial offset.  The studies
    are ordinary :class:`TrialStudy` objects — stored, hashed and reported
    exactly as per-point runs are.
    """
    from ...sim.health import RunHealth
    from ...sim.runner import TrialStudy

    studies = []
    offset = 0
    for spec in specs:
        chunk = results[offset : offset + spec.trials]
        offset += spec.trials
        # Each member reduces its own trials in order and, streaming,
        # releases their columns, as TrialRunner._absorb does.
        pipeline = spec.pipeline.build() if spec.pipeline is not None else None
        for result in chunk:
            if pipeline is not None:
                pipeline.update(result)
            if spec.streaming:
                result.release_counters()
        health = RunHealth(
            requested_workers=spec.workers, effective_workers=1
        )
        studies.append(
            TrialStudy(
                results=chunk,
                label=spec.display_label,
                effective_workers=1,
                pipeline=pipeline,
                health=health,
            )
        )
    return studies
