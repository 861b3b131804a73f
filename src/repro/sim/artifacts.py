"""Process-wide cache of seed-independent dispatch artifacts.

Every study dispatch pays a set of fixed costs that depend only on the
*spec*, never on the trial seeds: building a protocol program's compiled
probability tables (``compiled_tables``) and the once-per-process RNG
stream self-verifications (:func:`repro.rng.lockstep_streams_ok` and the
compiled interpreter's replay).  A sweep re-pays all of them per point; this
module memoizes them process-wide so repeated dispatches of equivalent specs
are O(1).

What is (and is not) cacheable
------------------------------

Only **seed-independent** artifacts live here.  A compiled table is a pure
function of ``(spec_kind, spec params, horizon)``; the stream verification
is a pure property of the numpy build.  Per-trial adversary
*schedules* (``compile_adversary_schedules``) consume each trial's own RNG
streams and are therefore seed-dependent — caching them would break the
seed-for-seed contract, so they are deliberately never cached.

Invalidation mirrors the fault cache (:data:`repro.faults._ENV_CACHE`): the
whole cache is tied to the current ``REPRO_FAULTS`` value and the
programmatically activated plan, so flipping the fault regime (e.g. a chaos
test toggling :func:`repro.faults.injected`) never serves artifacts
computed under a different one.

Callers key their entries themselves; keys must be hashable and are
namespaced by convention with a leading tag string (``("cjz-tables", ...)``).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from .. import faults

__all__ = [
    "cached_artifact",
    "canonical_key",
    "clear_artifacts",
    "streams_verified",
]

_CACHE: Dict[Hashable, Any] = {}
#: (raw REPRO_FAULTS value, programmatically active plan) the cache was
#: populated under; any change flushes everything.
_GENERATION: Tuple[Optional[str], Optional[object]] = (None, None)
_LOCK = threading.RLock()

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


def _current_generation() -> Tuple[Optional[str], Optional[object]]:
    return (os.environ.get("REPRO_FAULTS"), faults._ACTIVE)


def _ensure_generation() -> None:
    global _GENERATION
    generation = _current_generation()
    if generation[0] != _GENERATION[0] or generation[1] is not _GENERATION[1]:
        _CACHE.clear()
        _GENERATION = generation


def cached_artifact(key: Hashable, builder: Callable[[], Any]) -> Any:
    """The memoized value for ``key``, building (and storing) it on a miss.

    ``builder`` runs at most once per key per fault generation; its result —
    including ``None`` — is returned verbatim afterwards.  Cached values are
    shared across studies, so callers must treat them as immutable.
    """
    with _LOCK:
        _ensure_generation()
        value = _CACHE.get(key, _MISSING)
        if value is not _MISSING:
            return value
    # Build outside the lock: table construction may be expensive, and
    # duplicate concurrent builds are harmless (pure functions of the key).
    value = builder()
    with _LOCK:
        _ensure_generation()
        return _CACHE.setdefault(key, value)


def clear_artifacts() -> None:
    """Drop every cached artifact (tests; normally generation-driven)."""
    global _GENERATION
    with _LOCK:
        _CACHE.clear()
        _GENERATION = (None, None)


def canonical_key(data: Any) -> str:
    """Deterministic JSON encoding of spec-shaped data for cache keys."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)


def streams_verified() -> bool:
    """Once-per-process :func:`repro.rng.lockstep_streams_ok`, shared.

    The numpy lockstep kernel, the compiled kernel and the fused dispatcher
    all need the same runtime RNG replication check; routing it through the
    artifact cache runs the replay exactly once per process (per fault
    generation) instead of once per dispatch path.
    """
    from ..rng import lockstep_streams_ok

    return bool(cached_artifact(("lockstep-streams-ok",), lockstep_streams_ok))
