"""The ``lockstep-jit`` study kernel: a fused, compilable slot loop.

The numpy lockstep kernel advances the whole population per slot with array
operations, but still pays dozens of numpy dispatches per slot.  This kernel
lowers the entire study — protocol program, RNG streams, adversary driver,
bookkeeping — into flat int64/float64 arrays and runs **one** loop over the
horizon (:func:`repro.sim.backends._interp.fused_loop`), compiled with
``numba.njit(cache=True)`` when numba is importable.

Selection mirrors the runtime RNG self-verification pattern used everywhere
else in the tree: the interpreter must first reproduce real ``default_rng``
draws bit for bit (:func:`compiled_streams_ok`, replaying the same
interleaved pattern :func:`repro.rng.lockstep_streams_ok` pins for the numpy
pool).  Any missing piece — no numba, no compiled tables for the protocol, a
driver outside the three columnar families, a failed self-test — **demotes
the study to the numpy lockstep kernel** with identical results (seed
derivation is read-only, so the rerun consumes the same streams).  Demoted
results carry ``backend="lockstep"`` and a ``demotion`` health event.  Under
``auto`` the first two are known before dispatch, so the ladder skips this
rung for them instead (:meth:`CompiledStudyKernel.auto_skip_reason`).

Environment switches:

* ``REPRO_DISABLE_NUMBA`` — never use the compiled interpreter at all
  (every ``lockstep-jit`` request demotes to the numpy kernel);
* ``REPRO_COMPILED_FORCE_PYTHON`` — run the interpreter as plain Python
  (slow; exercised by the property suite so the exact compiled code path is
  tested without numba).
"""

from __future__ import annotations

import importlib.util
import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...adversary.columnar import (
    AdaptiveChaserLockstepDriver,
    LockstepAdversaryDriver,
    PrecompiledLockstepDriver,
    ReactiveJammingLockstepDriver,
)
from ...errors import ConfigurationError
from ...protocols.base import LOCKSTEP_SENTINEL
from ...rng import pcg64_bulk_init
from ..artifacts import streams_verified
from ..health import note_demotion
from ..results import SimulationResult
from .lockstep import (
    _BLOCK_TRIAL_SLOTS,
    LockstepStudyKernel,
    build_lockstep_driver,
    emit_lockstep_results,
)
from .studysupport import MAX_BLOCK_ELEMENTS, SeedPlan, StudyProbe

__all__ = ["CompiledStudyKernel", "compiled_streams_ok", "interpreter_mode"]


def _env_enabled(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


def interpreter_mode() -> str:
    """Which interpreter the compiled kernel would use right now.

    ``"numba"`` (compiled), ``"python"`` (the same code path uncompiled,
    forced by ``REPRO_COMPILED_FORCE_PYTHON``) or ``"off"`` (numba missing
    or ``REPRO_DISABLE_NUMBA`` set — every study demotes to the numpy
    lockstep kernel).  Read at dispatch time, so tests can flip the
    environment per study.
    """
    if _env_enabled("REPRO_DISABLE_NUMBA"):
        return "off"
    if _env_enabled("REPRO_COMPILED_FORCE_PYTHON"):
        return "python"
    try:
        import numba  # noqa: F401
    except Exception:
        return "off"
    return "numba"


# -- interpreter materialization -------------------------------------------

_KERNEL_CACHE: Dict[str, Optional[object]] = {}


def _build_numba_module():
    """A private copy of ``_interp`` with every function njit-compiled.

    ``numba.njit(cache=True)`` requires plain module-level functions (the
    on-disk cache cannot serialize closures), and the decorated dispatchers
    must replace the plain functions *in the module the callees are looked
    up in*.  Decorating the imported singleton would leak compiled functions
    into the pure-python mode, so a fresh module object is executed from the
    same spec — never inserted into ``sys.modules`` — and rebound wholesale.
    Compilation itself is lazy (first call), at which point every global
    already resolves to a dispatcher.
    """
    try:
        import numba
    except Exception:
        return None
    try:
        spec = importlib.util.find_spec("repro.sim.backends._interp")
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        jit = numba.njit(cache=True)
        for name in module.INTERP_FUNCTIONS:
            setattr(module, name, jit(getattr(module, name)))
        return module
    except Exception:
        return None


def _kernels_for(mode: str):
    """The interpreter module for ``mode`` (``None`` when unavailable)."""
    if mode not in _KERNEL_CACHE:
        if mode == "python":
            from . import _interp

            _KERNEL_CACHE[mode] = _interp
        elif mode == "numba":
            _KERNEL_CACHE[mode] = _build_numba_module()
        else:
            _KERNEL_CACHE[mode] = None
    return _KERNEL_CACHE[mode]


# -- runtime stream verification -------------------------------------------

_STREAMS_OK: Dict[str, bool] = {}


def compiled_streams_ok(mode: Optional[str] = None) -> bool:
    """Whether the interpreter reproduces real ``default_rng`` streams.

    Same contract as :func:`repro.rng.lockstep_streams_ok`, but replayed
    through the actual interpreter functions (compiled or python) via
    :func:`repro.sim.backends._interp.stream_selftest`.  Verified once per
    interpreter mode per process; any mismatch or exception permanently
    demotes that mode's studies to the numpy lockstep kernel.
    """
    if mode is None:
        mode = interpreter_mode()
    if mode == "off":
        return False
    if mode not in _STREAMS_OK:
        kernels = _kernels_for(mode)
        _STREAMS_OK[mode] = kernels is not None and _verify_compiled_streams(
            kernels
        )
    return _STREAMS_OK[mode]


def _verify_compiled_streams(kernels) -> bool:
    try:
        sequences = [
            np.random.SeedSequence(entropy, spawn_key=key)
            for entropy, key in [
                (20210219, (1, 0, 0)),
                (7, (2, 5, 0)),
                ((1 << 80) + 3, (0, 1, 0)),
            ]
        ]
        words = np.stack([s.generate_state(4, np.uint64) for s in sequences])
        shi, slo, ihi, ilo = (
            np.ascontiguousarray(limb) for limb in pcg64_bulk_init(words)
        )
        count = len(sequences)
        buf32 = np.zeros(count, dtype=np.uint64)
        has32 = np.zeros(count, dtype=bool)
        out_doubles = np.zeros((2, count), dtype=np.float64)
        out_pow2 = np.zeros((3, count), dtype=np.int64)
        out_bounded = np.zeros((5, count), dtype=np.int64)
        out_scalar = np.zeros((3, count), dtype=np.int64)
        with np.errstate(over="ignore"):
            kernels.stream_selftest(
                shi, slo, ihi, ilo, buf32, has32,
                out_doubles, out_pow2, out_bounded, out_scalar,
            )
        references = [np.random.default_rng(s) for s in sequences]
        for row, generator in enumerate(references):
            if out_doubles[0, row] != generator.random():
                return False
            if not np.array_equal(
                out_pow2[:, row], generator.integers(8, 16, size=3)
            ):
                return False
            if out_doubles[1, row] != generator.random():
                return False
            for j, bound in enumerate((1, 2, 7, 100, 1 << 20)):
                if out_bounded[j, row] != generator.integers(0, bound):
                    return False
            for j, bound in enumerate((3, 1 << 34, 1 << 63)):
                if out_scalar[j, row] != generator.integers(0, bound):
                    return False
        return True
    except Exception:  # pragma: no cover - defensive: never break dispatch
        return False


# -- the kernel -------------------------------------------------------------

_INTERPRETER_OFF = (
    "compiled interpreter is off (REPRO_DISABLE_NUMBA set or numba not "
    "importable)"
)
_NO_TABLES = "protocol program cannot lower to compiled tables"


class CompiledStudyKernel:
    """Study-level backend: the fused slot loop, numba-compiled when possible.

    Eligibility is identical to the numpy lockstep kernel (same probe-based
    checks); everything the compiled tier *additionally* needs is resolved
    at run time with silent demotion, so an explicit ``lockstep-jit``
    request always produces results — compiled when it can, numpy lockstep
    (``backend="lockstep"``) when it cannot.
    """

    name = "lockstep-jit"

    def __init__(self) -> None:
        self._numpy = LockstepStudyKernel()

    # ------------------------------------------------------------ eligibility

    def unsupported_reason(
        self,
        protocol_factory,
        adversary_factory,
        config,
        collectors: Sequence = (),
        probe: Optional[StudyProbe] = None,
    ) -> Optional[str]:
        return self._numpy.unsupported_reason(
            protocol_factory, adversary_factory, config, collectors, probe
        )

    def supports_study(
        self,
        protocol_factory,
        adversary_factory,
        config,
        collectors: Sequence = (),
        probe: Optional[StudyProbe] = None,
    ) -> bool:
        return (
            self.unsupported_reason(
                protocol_factory, adversary_factory, config, collectors, probe
            )
            is None
        )

    def auto_skip_reason(
        self, config, trials: int, probe: StudyProbe
    ) -> Optional[str]:
        """Why ``auto`` skips this rung (``None``: try it).

        The compiled tier strictly dominates the numpy kernel when it runs
        at all, so the numpy tier's population rule applies.  A study the
        interpreter cannot take at all — interpreter off, or a program with
        no compiled tables — skips the rung instead of trying it and
        recording a demotion; an explicit ``lockstep-jit`` request still
        tries and records one.
        """
        if interpreter_mode() == "off":
            return _INTERPRETER_OFF
        reason = self._numpy.auto_skip_reason(config, trials, probe)
        if reason is not None:
            return reason
        program = probe.program
        if program is not None and program.compiled_tables(config.horizon) is None:
            return _NO_TABLES
        return None

    # ------------------------------------------------------------------- run

    def run_study(
        self,
        protocol_factory,
        adversary_factory,
        config,
        trial_trees,
        protocol_name: str = "protocol",
        probe: Optional[StudyProbe] = None,
    ) -> Optional[List[SimulationResult]]:
        """Execute all trials compiled, demoting gracefully when impossible.

        Returns ``None`` only when the *numpy lockstep kernel* also cannot
        run the study (same contract: trial seed trees not consumed, the
        caller falls back to the per-trial ladder).
        """
        start_time = time.perf_counter()
        if probe is None:
            probe = StudyProbe(protocol_factory, adversary_factory)
        results = _run_compiled(
            adversary_factory, config, trial_trees, protocol_name, probe
        )
        if results is None:
            # Demote: the numpy kernel reruns from the same read-only seed
            # derivation, producing identical results (backend="lockstep").
            return self._numpy.run_study(
                protocol_factory,
                adversary_factory,
                config,
                trial_trees,
                protocol_name,
                probe,
            )
        per_trial = (time.perf_counter() - start_time) / max(1, len(results))
        for result in results:
            result.wall_time_seconds = per_trial
        return results


def _run_compiled(
    adversary_factory, config, trial_trees, protocol_name, probe
) -> Optional[List[SimulationResult]]:
    """The compiled path proper; ``None`` means demote to numpy lockstep.

    Every bail-out used to be silent; each now records a ``demotion``
    health event with the concrete reason before returning ``None``.
    """
    mode = interpreter_mode()
    if mode == "off":
        _demote(_INTERPRETER_OFF)
        return None
    program = probe.program
    if program is None or config.keep_trace or config.horizon >= 2**31:
        _demote(
            "no columnar program"
            if program is None
            else "keep_trace retains per-slot events"
            if config.keep_trace
            else "horizon exceeds the interpreter's int32 slot budget"
        )
        return None
    tables = program.compiled_tables(config.horizon)
    if tables is None:
        _demote(_NO_TABLES)
        return None
    if not streams_verified() or not compiled_streams_ok(mode):
        _demote(
            f"RNG stream self-test failed for the {mode!r} interpreter mode"
        )
        return None
    kernels = _kernels_for(mode)
    if kernels is None:
        _demote(f"no interpreter module for mode {mode!r}")
        return None
    plan = SeedPlan.build(trial_trees)
    if not plan.fast:
        _demote("trial seeds not derivable on the bulk fast path")
        return None

    block_trials = max(1, _BLOCK_TRIAL_SLOTS // (config.horizon + 1))
    results: List[SimulationResult] = []
    for lo in range(0, plan.trials, block_trials):
        hi = min(plan.trials, lo + block_trials)
        block_plan = (
            plan if (lo, hi) == (0, plan.trials) else plan.restrict(lo, hi)
        )
        block = _run_block(
            kernels, mode, adversary_factory, config, block_plan, tables,
            protocol_name,
        )
        if block is None:
            return None
        results.extend(block)
    return results


def _demote(reason: str) -> None:
    """Record the compiled tier handing this study to the numpy kernel."""
    note_demotion(CompiledStudyKernel.name, LockstepStudyKernel.name, reason)


def _lower_driver(
    driver: LockstepAdversaryDriver, config, horizon: int, trials: int
):
    """Flatten a columnar adversary driver into interpreter arrays.

    Returns ``(adv_mode, arr_sched, jam_sched, adv_i, adv_f, capacity)`` or
    ``None`` for drivers outside the three columnar families (the generic
    per-instance driver calls arbitrary Python per slot and cannot lower).
    Schedule-backed modes raise the same :class:`ConfigurationError` the
    numpy kernel would on a ``max_nodes`` violation.
    """
    int_dummy = np.zeros((1, 1), dtype=np.int64)
    jam_dummy = np.zeros((1, 1), dtype=np.uint8)
    if type(driver) is PrecompiledLockstepDriver:
        arr = np.ascontiguousarray(driver.arrival_schedule, dtype=np.int64)
        jam = np.ascontiguousarray(driver._jammed).astype(np.uint8)
        adv_i = np.zeros((trials, 1), dtype=np.int64)
        adv_f = np.zeros((trials, 1), dtype=np.float64)
        capacity = _schedule_capacity(arr, config, horizon)
        return 0, arr, jam, adv_i, adv_f, capacity
    if type(driver) is ReactiveJammingLockstepDriver:
        arr = np.ascontiguousarray(driver.arrival_schedule, dtype=np.int64)
        # [seen, pending, jammed_so_far, burst]
        adv_i = np.zeros((trials, 4), dtype=np.int64)
        adv_i[:, 3] = driver._burst
        adv_f = np.ascontiguousarray(
            driver._fraction, dtype=np.float64
        ).reshape(trials, 1)
        capacity = _schedule_capacity(arr, config, horizon)
        return 1, arr, jam_dummy, adv_i, adv_f, capacity
    if type(driver) is AdaptiveChaserLockstepDriver:
        # [pending_arr, pending_jam, injected, jammed, slots, per_success,
        #  total_budget (-1 = unbounded), jam_burst, seed_arrivals]
        adv_i = np.zeros((trials, 9), dtype=np.int64)
        adv_i[:, 5] = driver._per_success
        adv_i[:, 6] = np.where(
            driver._unbounded, np.int64(-1), driver._total_budget
        )
        adv_i[:, 7] = driver._jam_burst
        adv_i[:, 8] = driver._seed_arrivals
        adv_f = np.ascontiguousarray(
            driver._jam_fraction, dtype=np.float64
        ).reshape(trials, 1)
        # Worst-case occupancy: the whole budget, or seeds plus one chased
        # burst per slot; the interpreter cannot grow, so size for the peak
        # (capped at max_nodes — beyond it the run raises anyway).
        bound = np.where(
            driver._unbounded,
            driver._seed_arrivals + driver._per_success * horizon,
            driver._total_budget,
        )
        capacity = max(1, min(int(bound.max(initial=0)), int(config.max_nodes)))
        return 2, int_dummy, jam_dummy, adv_i, adv_f, capacity
    return None


def _schedule_capacity(arr: np.ndarray, config, horizon: int) -> int:
    cum = np.cumsum(arr, axis=1)
    over_trials, over_slots = np.nonzero(cum > config.max_nodes)
    if over_trials.size:
        raise ConfigurationError(
            f"adversary exceeded max_nodes={config.max_nodes} "
            f"at slot {int(over_slots[0])}"
        )
    return max(1, int(cum[:, horizon].max())) if cum.size else 1


def _run_block(
    kernels, mode, adversary_factory, config, plan, tables, protocol_name,
    driver: Optional[LockstepAdversaryDriver] = None,
) -> Optional[List[SimulationResult]]:
    horizon = config.horizon
    trials = plan.trials
    if driver is None:
        # The fused dispatcher passes a pre-merged driver; the per-study
        # path builds one from the factory as before.
        driver = build_lockstep_driver(adversary_factory, config, plan)
    if driver is None:
        _demote("no columnar lockstep driver for this adversary")
        return None
    lowered = _lower_driver(driver, config, horizon, trials)
    if lowered is None:
        _demote(
            "adversary driver is outside the three lowerable columnar "
            "families"
        )
        return None
    adv_mode, arr_sched, jam_sched, adv_i, adv_f, capacity = lowered

    rows = trials * capacity
    plan_width = max(1, tables.plan_width)
    if rows * plan_width > MAX_BLOCK_ELEMENTS:
        _demote(
            f"block of {rows}×{plan_width} elements exceeds the "
            "interpreter's memory budget"
        )
        return None

    # Seed every (trial, node) stream up front: one bulk hash for the whole
    # rectangle, exactly the states NodeStreamPool.seed_rows would install.
    node_ids = np.tile(np.arange(capacity, dtype=np.int64), trials)
    trial_ids = np.repeat(np.arange(trials, dtype=np.int64), capacity)
    states = plan.node_states_pairs(trial_ids, node_ids)
    if states is None:
        _demote("node RNG states not bulk-derivable for these seed trees")
        return None
    shi, slo, ihi, ilo = (
        np.ascontiguousarray(limb) for limb in pcg64_bulk_init(states)
    )
    buf32 = np.zeros(rows, dtype=np.uint64)
    has32 = np.zeros(rows, dtype=bool)

    node_i = np.zeros((rows, tables.int_state_width), dtype=np.int64)
    node_f = np.zeros(
        (rows, max(1, tables.float_state_width)), dtype=np.float64
    )
    plan_m = np.full((rows, plan_width), LOCKSTEP_SENTINEL, dtype=np.int64)

    arrival_col = np.zeros(rows, dtype=np.int64)
    success_col = np.zeros(rows, dtype=np.int64)
    broadcasts_col = np.zeros(rows, dtype=np.int64)
    node_count = np.zeros(trials, dtype=np.int64)
    success_count = np.zeros(trials, dtype=np.int64)
    simulated = np.full(trials, horizon, dtype=np.int64)
    arrivals_m = np.zeros((trials, horizon + 1), dtype=np.int64)
    jam_m = np.zeros((trials, horizon + 1), dtype=bool)
    success_m = np.zeros((trials, horizon + 1), dtype=bool)
    counts_m = np.zeros((trials, horizon + 1), dtype=np.int32)

    # Schedule-backed drivers answer exhaustion as a monotone threshold in
    # the slot (all arrival strategies are "done after slot s"), so the
    # first exhausted slot binary-searches in O(log horizon) pure queries.
    # The chaser (mode 2) is counter-based and resolved inside the loop.
    exhaust_from = np.full(trials, horizon + 1, dtype=np.int64)
    if config.stop_when_drained and adv_mode != 2:
        for t in range(trials):
            if not driver.exhausted(t, horizon):
                continue
            lo_slot, hi_slot = 1, horizon
            while lo_slot < hi_slot:
                mid = (lo_slot + hi_slot) // 2
                if driver.exhausted(t, mid):
                    hi_slot = mid
                else:
                    lo_slot = mid + 1
            exhaust_from[t] = lo_slot

    def invoke():
        return kernels.fused_loop(
            np.int64(horizon), np.int64(trials), np.int64(capacity),
            np.int64(config.max_nodes),
            np.int64(1 if config.stop_when_drained else 0),
            np.int64(tables.opcode), tables.prog_i, tables.prog_f,
            tables.stage_counts, tables.table_ctrl, tables.table_data,
            node_i, node_f, plan_m,
            shi, slo, ihi, ilo, buf32, has32,
            np.int64(adv_mode), arr_sched, jam_sched, adv_i, adv_f,
            exhaust_from,
            arrival_col, success_col, broadcasts_col,
            node_count, success_count, simulated,
            arrivals_m, jam_m, success_m, counts_m,
        )

    try:
        if mode == "numba":
            status = invoke()
        else:
            with np.errstate(over="ignore"):
                status = invoke()
    except Exception as exc:
        _demote(f"interpreter raised {type(exc).__name__}: {exc}")
        return None
    if int(status) != 0:
        # Status 1: max_nodes exceeded mid-run (adaptive arrivals) — the
        # numpy rerun raises the identical ConfigurationError.  Status 2:
        # defensive capacity overflow — the numpy kernel grows instead.
        _demote(
            "interpreter bailed mid-run "
            + (
                "(max_nodes exceeded; the numpy rerun raises the same error)"
                if int(status) == 1
                else "(capacity overflow; the numpy kernel grows instead)"
            )
        )
        return None

    return emit_lockstep_results(
        [driver.describe(t) for t in range(trials)],
        horizon, capacity, node_count,
        arrival_col, success_col, broadcasts_col,
        simulated, arrivals_m, jam_m, success_m, counts_m,
        protocol_name, CompiledStudyKernel.name,
    )
