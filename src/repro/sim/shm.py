"""Shared-memory transport for parallel study results.

``workers=N`` forks the trial runner; historically every worker's results
travelled back through the pool's pickle pipe — O(trials × horizon) int64
prefix columns serialized byte by byte.  This module moves the bulk numeric
payload through one ``multiprocessing.shared_memory`` block per worker
instead: the worker lays every result's three node columns and either its
four prefix columns (when the counters were built or handed over) or its
jammed slots' indices (when they were never read) into the block, and the
parent re-wraps them as zero-copy numpy views.  Only O(1) metadata per
trial (summaries, names, provenance) still crosses the pickle boundary.

Results that carry non-columnar payloads (released counters in streaming
mode, retained event traces) fall back to the plain pickle path unchanged —
correctness never depends on the transport.  The same fallback fires when
shared-memory staging itself fails (segment creation denied, ``/dev/shm``
full, an injected ``shm-export`` fault): the shard is re-exported through
pickle and a ``fallback`` event is recorded on the run's health.  A *parent*
-side attach failure is handled one level up — the supervised pool retries
the shard with the pickle transport forced (``force_pickle=True``).

Lifecycle: the worker copies into the block, closes its mapping and
unregisters the segment from its ``resource_tracker`` (the parent owns
cleanup).  The parent attaches, **unlinks immediately** — the segment then
lives exactly as long as the parent's mappings — and pins the mapping on
each rehydrated result (``_shm_block``) so views stay valid for the study's
lifetime.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, Dict, List

import numpy as np

from .. import faults
from . import health
from .results import (
    COLUMN_NAMES,
    NODE_COLUMN_NAMES,
    NodeColumns,
    PrefixCounters,
    SimulationResult,
)

try:  # pragma: no cover - stdlib, but keep the transport optional
    from multiprocessing import resource_tracker
except Exception:  # pragma: no cover
    resource_tracker = None

__all__ = ["discard_payload", "export_study", "import_study"]

class _PinnedBlock(shared_memory.SharedMemory):
    """An attached segment whose mapping outlives interpreter teardown.

    The parent hands out zero-copy numpy views into the mapping, so
    ``close()`` would raise ``BufferError`` for as long as any view is
    alive.  The segment is already unlinked; letting the OS reclaim the
    mapping at process exit is the intended lifecycle.
    """

    def close(self) -> None:  # pragma: no cover - exercised at GC/shutdown
        try:
            super().close()
        except BufferError:
            pass


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach the segment from this process's resource tracker.

    The tracker would otherwise unlink the segment when its owning process
    exits; ownership is transferred explicitly (worker → parent), so
    tracking is disabled on both sides.
    """
    if resource_tracker is None:
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across versions
        pass


def export_study(results: List[SimulationResult], force_pickle: bool = False):
    """Pack a worker shard for the trip back to the parent.

    Returns ``("shm", name, headers)`` with the numeric payload staged in a
    shared-memory block, or ``("pickle", results)`` when any result cannot
    be laid out columnar (streamed-away counters, retained traces), when
    ``force_pickle`` is set (a supervisor retry after a parent-side attach
    failure), or when shared-memory staging itself fails — the caller sends
    the returned tuple through the pool either way.
    """
    if force_pickle or not results or any(
        result.trace is not None
        or (result.cached_counters is None and result.jam_flags is None)
        for result in results
    ):
        return ("pickle", results)
    try:
        return _export_shm(results)
    except Exception as exc:
        health.note(
            "fallback", "shm", f"shared-memory export failed ({exc}); using pickle"
        )
        return ("pickle", results)


def _export_shm(results: List[SimulationResult]):
    faults.active_plan().maybe_raise("shm-export", trials=len(results))
    headers: List[Dict[str, Any]] = []
    columns: List[np.ndarray] = []
    for result in results:
        own = [getattr(result.node_stats, name) for name in NODE_COLUMN_NAMES]
        counters = result.cached_counters
        if counters is not None:
            own.extend(getattr(counters, name) for name in COLUMN_NAMES)
        else:
            # Counters never read ship as the jammed slots they derive from.
            jammed = result.jam_flags
            own.append(np.flatnonzero(jammed) if jammed.dtype == bool else jammed)
        columns.extend(own)
        headers.append(
            {
                "summary": result.summary,
                "protocol_name": result.protocol_name,
                "adversary_name": result.adversary_name,
                "horizon": result.horizon,
                "seed": result.seed,
                "extra": result.extra,
                "backend": result.backend,
                "wall_time_seconds": result.wall_time_seconds,
                "lengths": [column.shape[0] for column in own],
            }
        )
    total_words = sum(column.shape[0] for column in columns)

    shm = shared_memory.SharedMemory(
        create=True, size=max(8, total_words * 8)
    )
    try:
        block = np.frombuffer(shm.buf, dtype=np.int64)
        cursor = 0
        for column in columns:
            block[cursor : cursor + column.shape[0]] = column
            cursor += column.shape[0]
        name = shm.name
        del block
    except BaseException:
        # Failed mid-stage: nobody will ever attach, so unlink here rather
        # than leak the segment (the caller falls back to pickle).
        try:
            shm.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    finally:
        _untrack(shm)
        shm.close()
    return ("shm", name, headers)


def discard_payload(payload) -> None:
    """Release a staged shm payload that will never be imported.

    Used by the supervised pool when the parent-side attach (or rehydration)
    fails: the worker has already detached and untracked the segment, so
    without this the block would outlive the study.  Best effort — a segment
    that cannot be attached cannot be freed early and falls to the OS.
    """
    if not payload or payload[0] != "shm":
        return
    try:
        segment = shared_memory.SharedMemory(name=payload[1])
    except Exception:
        return
    try:
        segment.unlink()
    finally:
        segment.close()


def import_study(payload) -> List[SimulationResult]:
    """Rehydrate a worker shard in the parent (zero-copy for shm payloads)."""
    kind = payload[0]
    if kind == "pickle":
        return payload[1]
    _, name, headers = payload
    shm = _PinnedBlock(name=name)
    # Unlink now (which also unregisters the parent's tracker entry): the
    # segment survives exactly as long as mappings exist, so a crash after
    # this point cannot leak it.
    shm.unlink()
    block = np.frombuffer(shm.buf, dtype=np.int64)
    cursor = 0
    results: List[SimulationResult] = []
    for header in headers:
        columns = []
        for length in header["lengths"]:
            columns.append(block[cursor : cursor + length])
            cursor += length
        # Four prefix columns, or the jammed slots the counters derive from.
        per_slot = columns[len(NODE_COLUMN_NAMES) :]
        counters = PrefixCounters(*per_slot) if len(per_slot) > 1 else None
        result = SimulationResult(
            summary=header["summary"],
            node_stats=NodeColumns(*columns[: len(NODE_COLUMN_NAMES)]),
            counters=counters,
            protocol_name=header["protocol_name"],
            adversary_name=header["adversary_name"],
            horizon=header["horizon"],
            seed=header["seed"],
            extra=header["extra"],
            backend=header["backend"],
            wall_time_seconds=header["wall_time_seconds"],
            jammed=None if counters is not None else per_slot[0],
        )
        # Pin the mapping: the columns are views into it.
        result._shm_block = shm
        results.append(result)
    return results
