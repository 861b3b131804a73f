"""Scalar interpreter of the fused lockstep slot loop.

This module is the *source form* of the ``lockstep-jit`` study backend's
kernel: plain module-level functions written in the numba-compatible subset
of Python/numpy, with no closures and no Python objects.  The compiled
backend (:mod:`repro.sim.backends.compiled`) consumes it in two ways:

* **numba mode** — a private copy of this module is materialized and every
  function is rebound to its ``numba.njit(cache=True)`` dispatcher, so the
  whole slot loop fuses into one compiled function (module-level functions
  keep numba's on-disk cache usable, which closures would not);
* **python mode** — the functions run as-is, giving a dependency-free
  reference execution of the very same code path (slow, used by the
  property suite and as a debugging aid via ``REPRO_COMPILED_FORCE_PYTHON``).

Everything here replays the per-node ``default_rng`` streams bit for bit:
the RNG primitives are the scalar transcription of
:class:`repro.rng.NodeStreamPool`'s vectorized PCG64 limb arithmetic (same
128-bit multiplier split, same buffered Lemire rejection), and the protocol
families (:data:`~repro.protocols.base.OP_CJZ`,
:data:`~repro.protocols.base.OP_WINDOWED`,
:data:`~repro.protocols.base.OP_SAWTOOTH`) consume draws in exactly the
order and kind their columnar lockstep programs do.  Divergence is caught at
runtime by :func:`repro.sim.backends.compiled.compiled_streams_ok`, which
replays :func:`stream_selftest` against real numpy generators.

In python mode the ``uint64`` arithmetic relies on numpy's wrapping scalar
semantics; callers must wrap invocations in ``np.errstate(over="ignore")``.
"""

from __future__ import annotations

import numpy as np

from ...protocols.base import (
    LOCKSTEP_SENTINEL,
    OP_CJZ,
    OP_SAWTOOTH,
    OP_WINDOWED,
)

__all__ = ["fused_loop", "stream_selftest", "INTERP_FUNCTIONS"]

# PCG64 multiplier limbs (identical to repro.rng's vectorized constants).
_M_HI = np.uint64(0x2360ED051FC65DA4)
_M_LO = np.uint64(0x4385DF649FCCF645)
_MASK32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(0x100000000)
_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_U64_0 = np.uint64(0)
_U64_1 = np.uint64(1)
_SH11 = np.uint64(11)
_SH32 = np.uint64(32)
_SH58 = np.uint64(58)
_SH63 = np.uint64(63)
_SH64 = np.uint64(64)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def _mulhi64(a, b):
    """High 64 bits of the 64x64 product, via 32-bit limbs."""
    a0 = a & _MASK32
    a1 = a >> _SH32
    b0 = b & _MASK32
    b1 = b >> _SH32
    lo_lo = a0 * b0
    m1 = a1 * b0 + (lo_lo >> _SH32)
    m2 = a0 * b1 + (m1 & _MASK32)
    return a1 * b1 + (m1 >> _SH32) + (m2 >> _SH32)


def _raw64(shi, slo, ihi, ilo, r):
    """One raw PCG64 output word for row ``r``; advances the row's state."""
    s_hi = shi[r]
    s_lo = slo[r]
    hi = _mulhi64(s_lo, _M_LO) + s_lo * _M_HI + s_hi * _M_LO
    lo = s_lo * _M_LO
    lo2 = lo + ilo[r]
    carry = _U64_1 if lo2 < lo else _U64_0
    hi2 = hi + ihi[r] + carry
    shi[r] = hi2
    slo[r] = lo2
    rotation = hi2 >> _SH58
    value = hi2 ^ lo2
    return (value >> rotation) | (value << ((_SH64 - rotation) & _SH63))


def _double(shi, slo, ihi, ilo, r):
    """One ``Generator.random()`` double (never touches the 32-bit buffer)."""
    return np.float64(_raw64(shi, slo, ihi, ilo, r) >> _SH11) * _INV53


def _next_u32(shi, slo, ihi, ilo, buf32, has32, r):
    """One buffered ``next_uint32`` (low half first, high half buffered)."""
    if has32[r]:
        has32[r] = False
        return buf32[r]
    raw = _raw64(shi, slo, ihi, ilo, r)
    buf32[r] = raw >> _SH32
    has32[r] = True
    return raw & _MASK32


def _bounded_u32(shi, slo, ihi, ilo, buf32, has32, r, rng):
    """``integers(0, rng + 1)`` for ``rng < 2**32 - 1`` (buffered Lemire)."""
    if rng == _U64_0:
        return np.int64(0)
    rng_excl = rng + _U64_1
    m = _next_u32(shi, slo, ihi, ilo, buf32, has32, r) * rng_excl
    leftover = m & _MASK32
    if leftover < rng_excl:
        threshold = (_TWO32 - rng_excl) % rng_excl
        while leftover < threshold:
            m = _next_u32(shi, slo, ihi, ilo, buf32, has32, r) * rng_excl
            leftover = m & _MASK32
    return np.int64(m >> _SH32)


def _bounded_any(shi, slo, ihi, ilo, buf32, has32, r, span):
    """``integers(0, span + 1)`` for any non-negative int64 ``span``.

    Same mixed-width dispatch as ``lockstep_bounded_offsets`` +
    ``NodeStreamPool.bounded_scalar``: sub-32-bit spans through the buffered
    path, wider spans through numpy's 64-bit Lemire rejection.
    """
    rng = np.uint64(span)
    if rng < _MASK32:
        return _bounded_u32(shi, slo, ihi, ilo, buf32, has32, r, rng)
    if rng == _MASK32:
        return np.int64(_next_u32(shi, slo, ihi, ilo, buf32, has32, r))
    if rng == _FULL64:
        return np.int64(_raw64(shi, slo, ihi, ilo, r))
    rng_excl = rng + _U64_1
    raw = _raw64(shi, slo, ihi, ilo, r)
    hi = _mulhi64(raw, rng_excl)
    leftover = raw * rng_excl
    if leftover < rng_excl:
        threshold = (_U64_0 - rng_excl) % rng_excl
        while leftover < threshold:
            raw = _raw64(shi, slo, ihi, ilo, r)
            hi = _mulhi64(raw, rng_excl)
            leftover = raw * rng_excl
    return np.int64(hi)


def _pow2_draw(shi, slo, ihi, ilo, buf32, has32, r, k):
    """One ``integers(2**k, 2**(k+1))`` draw (zero rejection threshold)."""
    u = _next_u32(shi, slo, ihi, ilo, buf32, has32, r)
    return np.int64(u >> np.uint64(32 - k)) + (np.int64(1) << np.int64(k))


def _rint(x):
    """``np.rint`` (round half to even) for non-negative floats, as int64."""
    f = np.floor(x)
    d = x - f
    if d > 0.5:
        f += 1.0
    elif d == 0.5:
        h = f / 2.0
        if np.floor(h) != h:
            f += 1.0
    return np.int64(f)


# --------------------------------------------------------------------------
# Protocol families.  Per-node state layouts (``node_i`` columns):
#
# OP_CJZ:       [phase, anchor1, anchor2, anchor3, stage, plan_ptr,
#                next_planned];  prog_i = [global_clock]
# OP_WINDOWED:  [window, failures, next_attempt];
#               prog_i = [initial, max(-1 = none), has_degree];
#               prog_f = [degree]
# OP_SAWTOOTH:  [window, phase_end];  node_f = [probability];
#               prog_i = [initial, max(-1 = none)]
# --------------------------------------------------------------------------


def _windowed_reschedule(
    node_i, r, from_slot, shi, slo, ihi, ilo, buf32, has32
):
    span = node_i[r, 0] - 1
    offset = _bounded_any(shi, slo, ihi, ilo, buf32, has32, r, span)
    node_i[r, 2] = from_slot + offset


def _program_arrive(
    opcode, r, slot, node_i, node_f, prog_i, prog_f,
    shi, slo, ihi, ilo, buf32, has32,
):
    if opcode == OP_CJZ:
        if prog_i[0] != 0:
            # Global-clock variant: straight to Phase 2, anchored at the
            # next odd slot (the globally known control channel).
            node_i[r, 0] = 2
            node_i[r, 2] = slot if slot % 2 == 1 else slot + 1
        else:
            node_i[r, 0] = 1
            node_i[r, 1] = slot
        node_i[r, 4] = -1
        node_i[r, 6] = LOCKSTEP_SENTINEL
    elif opcode == OP_WINDOWED:
        if prog_i[2] != 0:
            node_i[r, 1] = 0
            grown = _rint(1.0 ** prog_f[0])
            node_i[r, 0] = max(prog_i[0], grown)
        else:
            node_i[r, 0] = prog_i[0]
        _windowed_reschedule(node_i, r, slot, shi, slo, ihi, ilo, buf32, has32)
    else:  # OP_SAWTOOTH
        node_i[r, 0] = prog_i[0]
        probability = 1.0 / np.float64(prog_i[0])
        node_f[r, 0] = probability
        node_i[r, 1] = slot + max(np.int64(1), _rint(1.0 / probability))


def _cjz_enter_stage(
    r, k, node_i, plan, stage_counts, shi, slo, ihi, ilo, buf32, has32
):
    """Draw, sort and dedupe the send plan of freshly entered stage ``k``."""
    width = plan.shape[1]
    if k == 0:
        # integers(1, 2) is numpy's zero-range path: no randomness consumed.
        plan[r, 0] = 1
        for j in range(1, width):
            plan[r, j] = LOCKSTEP_SENTINEL
    else:
        count = stage_counts[k]
        for j in range(count):
            plan[r, j] = _pow2_draw(shi, slo, ihi, ilo, buf32, has32, r, k)
        for a in range(1, count):
            value = plan[r, a]
            b = a - 1
            while b >= 0 and plan[r, b] > value:
                plan[r, b + 1] = plan[r, b]
                b -= 1
            plan[r, b + 1] = value
        # Duplicates collapse (drawing with replacement): keep the sorted
        # uniques at the front, sentinel-fill the rest.
        previous = plan[r, 0]
        w = 1
        for a in range(1, count):
            current = plan[r, a]
            if current != previous:
                plan[r, w] = current
                w += 1
                previous = current
        for a in range(w, width):
            plan[r, a] = LOCKSTEP_SENTINEL
    node_i[r, 5] = 0
    node_i[r, 6] = plan[r, 0]
    node_i[r, 4] = k


def _program_step(
    opcode, r, slot, node_i, node_f, plan, prog_i, prog_f,
    stage_counts, table_ctrl, table_data,
    shi, slo, ihi, ilo, buf32, has32,
):
    if opcode == OP_CJZ:
        phase = node_i[r, 0]
        parity = slot & 1
        if phase < 3:
            anchor = node_i[r, 1] if phase == 1 else node_i[r, 2]
            if (anchor & 1) == parity and slot >= anchor:
                local = ((slot - anchor) >> 1) + 1
                k = np.int64(0)
                value = local
                while value > 1:
                    value >>= 1
                    k += 1
                if k != node_i[r, 4]:
                    _cjz_enter_stage(
                        r, k, node_i, plan, stage_counts,
                        shi, slo, ihi, ilo, buf32, has32,
                    )
                if node_i[r, 6] == local:
                    pointer = node_i[r, 5] + 1
                    node_i[r, 5] = pointer
                    node_i[r, 6] = plan[r, pointer]
                    return True
            return False
        anchor3 = node_i[r, 3]
        on_ctrl = ((anchor3 + 1) & 1) == (slot & 1)
        if on_ctrl:
            local = ((slot - anchor3 - 1) >> 1) + 1
            probability = table_ctrl[local]
        else:
            local = ((slot - anchor3 - 2) >> 1) + 1
            probability = table_data[local]
        return _double(shi, slo, ihi, ilo, r) < probability
    if opcode == OP_WINDOWED:
        return node_i[r, 2] == slot
    # OP_SAWTOOTH
    if slot >= node_i[r, 1]:
        doubled = node_f[r, 0] * 2.0
        if doubled > 0.5 + 1e-12:
            window = node_i[r, 0] * 2
            if prog_i[1] >= 0 and window > prog_i[1]:
                window = prog_i[1]
            node_i[r, 0] = window
            probability = 1.0 / np.float64(window)
        else:
            probability = doubled
        node_f[r, 0] = probability
        node_i[r, 1] = slot + max(np.int64(1), _rint(1.0 / probability))
    return _double(shi, slo, ihi, ilo, r) < node_f[r, 0]


def _program_feedback(
    opcode, r, slot, send, trial_success, own, node_i, node_f,
    prog_i, prog_f, shi, slo, ihi, ilo, buf32, has32,
):
    if opcode == OP_CJZ:
        if trial_success and not own:
            phase = node_i[r, 0]
            parity = slot & 1
            if phase == 1:
                node_i[r, 0] = 2
                node_i[r, 2] = slot + 1
                node_i[r, 4] = -1
                node_i[r, 6] = LOCKSTEP_SENTINEL
            elif phase == 2:
                anchor2 = node_i[r, 2]
                if (anchor2 & 1) == parity and slot >= anchor2:
                    node_i[r, 0] = 3
                    node_i[r, 3] = slot
            else:
                anchor3 = node_i[r, 3]
                if ((anchor3 + 1) & 1) == parity and slot > anchor3:
                    node_i[r, 3] = slot
    elif opcode == OP_WINDOWED:
        if send and not trial_success:
            if prog_i[2] != 0:
                failures = node_i[r, 1] + 1
                node_i[r, 1] = failures
                grown = _rint(np.float64(failures + 1) ** prog_f[0])
                window = max(prog_i[0], grown)
            else:
                window = node_i[r, 0] * 2
                if prog_i[1] >= 0 and window > prog_i[1]:
                    window = prog_i[1]
            node_i[r, 0] = window
            _windowed_reschedule(
                node_i, r, slot + 1, shi, slo, ihi, ilo, buf32, has32
            )
        elif (not send) and (not own) and slot >= node_i[r, 2]:
            # Defensive slipped-attempt reschedule, mirroring on_feedback.
            _windowed_reschedule(
                node_i, r, slot + 1, shi, slo, ihi, ilo, buf32, has32
            )
    # OP_SAWTOOTH: time-driven, feedback is ignored.


# --------------------------------------------------------------------------
# The fused slot loop.
#
# Adversary lowering (``adv_mode``):
#   0 — precompiled: arr_sched/jam_sched are full (T, H+1) schedules;
#   1 — reactive jamming: arr_sched is real, jamming is replayed from
#       adv_i = [seen, pending, jammed_so_far, burst], adv_f = [fraction];
#   2 — success chaser: adv_i = [pending_arr, pending_jam, injected,
#       jammed, slots, per_success, total_budget (-1 = unbounded),
#       jam_burst, seed_arrivals], adv_f = [jam_fraction].
#
# Returns 0 on success, 1 when max_nodes is exceeded mid-run (the caller
# demotes; the numpy rerun raises the identical ConfigurationError) and 2 on
# a capacity overflow (defensive; the numpy kernel grows instead).
# --------------------------------------------------------------------------


def fused_loop(
    horizon, trials, capacity, max_nodes, stop_when_drained,
    opcode, prog_i, prog_f, stage_counts, table_ctrl, table_data,
    node_i, node_f, plan,
    shi, slo, ihi, ilo, buf32, has32,
    adv_mode, arr_sched, jam_sched, adv_i, adv_f, exhaust_from,
    arrival_col, success_col, broadcasts_col,
    node_count, success_count, simulated,
    jam_m, sent_m,
):
    total_rows = trials * capacity
    active_rows = np.empty(total_rows, np.int64)
    active_trials = np.empty(total_rows, np.int64)
    sends = np.zeros(total_rows, np.uint8)
    counts = np.zeros(trials, np.int64)
    winner_idx = np.zeros(trials, np.int64)
    success_f = np.zeros(trials, np.uint8)
    arr_buf = np.zeros(trials, np.int64)
    jam_buf = np.zeros(trials, np.uint8)
    trial_active = np.ones(trials, np.uint8)
    n_active = 0

    for slot in range(1, horizon + 1):
        # ----------------------------------------------- adversary actions
        for t in range(trials):
            arrivals = np.int64(0)
            jam = False
            if trial_active[t] == 1:
                if adv_mode == 0:
                    arrivals = arr_sched[t, slot]
                    jam = jam_sched[t, slot] != 0
                elif adv_mode == 1:
                    arrivals = arr_sched[t, slot]
                    adv_i[t, 0] += 1
                    budget = np.int64(
                        np.floor(adv_f[t, 0] * np.float64(adv_i[t, 0]))
                    )
                    if adv_i[t, 1] > 0 and adv_i[t, 2] < budget:
                        jam = True
                        adv_i[t, 1] -= 1
                        adv_i[t, 2] += 1
                else:
                    adv_i[t, 4] += 1
                    arrivals = adv_i[t, 0]
                    if slot == 1:
                        arrivals += adv_i[t, 8]
                    if adv_i[t, 6] >= 0:
                        remaining = adv_i[t, 6] - adv_i[t, 2]
                        if remaining < 0:
                            remaining = np.int64(0)
                        if arrivals > remaining:
                            arrivals = remaining
                    adv_i[t, 0] = 0
                    adv_i[t, 2] += arrivals
                    jam_budget = np.int64(
                        np.floor(adv_f[t, 0] * np.float64(adv_i[t, 4]))
                    )
                    if adv_i[t, 1] > 0 and adv_i[t, 3] < jam_budget:
                        jam = True
                        adv_i[t, 1] -= 1
                        adv_i[t, 3] += 1
            arr_buf[t] = arrivals
            jam_buf[t] = 1 if jam else 0
            jam_m[t, slot] = jam

        # ------------------------------------------------------ injection
        for t in range(trials):
            arrivals = arr_buf[t]
            if arrivals > 0:
                base = node_count[t]
                after = base + arrivals
                if adv_mode == 2 and after > max_nodes:
                    return np.int64(1)
                if after > capacity:
                    return np.int64(2)
                for i in range(arrivals):
                    row = t * capacity + base + i
                    arrival_col[row] = slot
                    _program_arrive(
                        opcode, row, slot, node_i, node_f, prog_i, prog_f,
                        shi, slo, ihi, ilo, buf32, has32,
                    )
                    active_rows[n_active] = row
                    active_trials[n_active] = t
                    n_active += 1
                node_count[t] = after

        # ----------------------------------------------------------- step
        for t in range(trials):
            counts[t] = 0
        for idx in range(n_active):
            row = active_rows[idx]
            send = _program_step(
                opcode, row, slot, node_i, node_f, plan, prog_i, prog_f,
                stage_counts, table_ctrl, table_data,
                shi, slo, ihi, ilo, buf32, has32,
            )
            if send:
                sends[idx] = 1
                t = active_trials[idx]
                counts[t] += 1
                broadcasts_col[row] += 1
                winner_idx[t] = idx
            else:
                sends[idx] = 0
        for t in range(trials):
            sent_m[t, slot] = counts[t] > 0

        # ----------------------------------------------------- resolution
        any_success = False
        for t in range(trials):
            won = counts[t] == 1 and jam_buf[t] == 0 and trial_active[t] == 1
            if won:
                any_success = True
                success_f[t] = 1
                winner_row = active_rows[winner_idx[t]]
                success_col[winner_row] = slot
                success_count[t] += 1
            else:
                success_f[t] = 0

        # ------------------------------------------------------- feedback
        for idx in range(n_active):
            row = active_rows[idx]
            t = active_trials[idx]
            trial_success = success_f[t] == 1
            send = sends[idx] == 1
            _program_feedback(
                opcode, row, slot, send, trial_success,
                trial_success and send, node_i, node_f, prog_i, prog_f,
                shi, slo, ihi, ilo, buf32, has32,
            )

        # ------------------------------------------------ driver feedback
        if any_success:
            if adv_mode == 1:
                for t in range(trials):
                    if success_f[t] == 1:
                        adv_i[t, 1] = adv_i[t, 3]
            elif adv_mode == 2:
                for t in range(trials):
                    if success_f[t] == 1:
                        adv_i[t, 0] += adv_i[t, 5]
                        adv_i[t, 1] = adv_i[t, 7]
            # Winner departure: compact the active arrays.
            write = 0
            for idx in range(n_active):
                t = active_trials[idx]
                if success_f[t] == 1 and sends[idx] == 1:
                    continue
                active_rows[write] = active_rows[idx]
                active_trials[write] = t
                sends[write] = sends[idx]
                write += 1
            n_active = write

        # ----------------------------------------------------- early stop
        if stop_when_drained != 0:
            for t in range(trials):
                if (
                    trial_active[t] == 1
                    and node_count[t] > 0
                    and node_count[t] == success_count[t]
                ):
                    if adv_mode == 2:
                        exhausted = (
                            adv_i[t, 6] >= 0
                            and adv_i[t, 2] >= adv_i[t, 6]
                            and adv_i[t, 0] == 0
                        )
                    else:
                        exhausted = slot >= exhaust_from[t]
                    if exhausted:
                        trial_active[t] = 0
                        simulated[t] = slot
            alive = False
            for t in range(trials):
                if trial_active[t] == 1:
                    alive = True
                    break
            if not alive:
                break
    return np.int64(0)


def stream_selftest(
    shi, slo, ihi, ilo, buf32, has32, out_doubles, out_pow2, out_bounded,
    out_scalar,
):
    """Replay the verification draw pattern for every row.

    Per row: one double, three ``integers(8, 16)`` draws, another double
    (must skip the 32-bit buffer), buffered-Lemire bounded draws for bounds
    1/2/7/100/2**20 (resuming from the buffered half), then the mixed-width
    scalar path for bounds 3, 2**34 and 2**63 — the same interleaving
    ``repro.rng._verify_lockstep_streams`` pins for the numpy pool.
    """
    n = shi.shape[0]
    for r in range(n):
        out_doubles[0, r] = _double(shi, slo, ihi, ilo, r)
        for j in range(3):
            out_pow2[j, r] = _pow2_draw(
                shi, slo, ihi, ilo, buf32, has32, r, np.int64(3)
            )
        out_doubles[1, r] = _double(shi, slo, ihi, ilo, r)
        out_bounded[0, r] = _bounded_u32(
            shi, slo, ihi, ilo, buf32, has32, r, _U64_0
        )
        out_bounded[1, r] = _bounded_u32(
            shi, slo, ihi, ilo, buf32, has32, r, _U64_1
        )
        out_bounded[2, r] = _bounded_u32(
            shi, slo, ihi, ilo, buf32, has32, r, np.uint64(6)
        )
        out_bounded[3, r] = _bounded_u32(
            shi, slo, ihi, ilo, buf32, has32, r, np.uint64(99)
        )
        out_bounded[4, r] = _bounded_u32(
            shi, slo, ihi, ilo, buf32, has32, r, np.uint64((1 << 20) - 1)
        )
        out_scalar[0, r] = _bounded_any(
            shi, slo, ihi, ilo, buf32, has32, r, np.int64(2)
        )
        out_scalar[1, r] = _bounded_any(
            shi, slo, ihi, ilo, buf32, has32, r, np.int64((1 << 34) - 1)
        )
        out_scalar[2, r] = _bounded_any(
            shi, slo, ihi, ilo, buf32, has32, r, np.int64((1 << 63) - 1)
        )


#: Compilation order for the numba lowering: callees strictly before
#: callers, so every global resolves to a dispatcher by the time its caller
#: is compiled.
INTERP_FUNCTIONS = (
    "_mulhi64",
    "_raw64",
    "_double",
    "_next_u32",
    "_bounded_u32",
    "_bounded_any",
    "_pow2_draw",
    "_rint",
    "_windowed_reschedule",
    "_program_arrive",
    "_cjz_enter_stage",
    "_program_step",
    "_program_feedback",
    "fused_loop",
    "stream_selftest",
)
