"""Process-wide cache of seed-independent dispatch artifacts.

Every study dispatch pays fixed costs that depend only on the *spec*,
never on the trial seeds: building a protocol program's compiled
probability tables (``compiled_tables``).  A sweep re-pays them per point;
this module memoizes them process-wide so repeated dispatches of equivalent
specs are O(1).  It also names the RNG stream self-verification the
lockstep tiers share (:func:`streams_verified`).

What is (and is not) cacheable
------------------------------

Only **seed-independent** artifacts live here.  A compiled table is a pure
function of ``(spec_kind, spec params, horizon)``.  Per-trial adversary
*schedules* (``compile_adversary_schedules``) consume each trial's own RNG
streams and are therefore seed-dependent — caching them would break the
seed-for-seed contract, so they are deliberately never cached.  No fault
site fires inside a builder, so an entry holds for the life of the process
whatever fault plan is active.

Callers key their entries themselves; keys must be hashable and are
namespaced by convention with a leading tag string (``("cjz-tables", ...)``).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, Hashable

__all__ = [
    "cached_artifact",
    "canonical_key",
    "streams_verified",
]

_CACHE: Dict[Hashable, Any] = {}
_LOCK = threading.RLock()

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


def cached_artifact(key: Hashable, builder: Callable[[], Any]) -> Any:
    """The memoized value for ``key``, building (and storing) it on a miss.

    ``builder`` runs at most once per key; its result — including ``None``
    — is returned verbatim afterwards.  Cached values are shared across
    studies, so callers must treat them as immutable.
    """
    with _LOCK:
        value = _CACHE.get(key, _MISSING)
        if value is not _MISSING:
            return value
    # Build outside the lock: table construction may be expensive, and
    # duplicate concurrent builds are harmless (pure functions of the key).
    value = builder()
    with _LOCK:
        return _CACHE.setdefault(key, value)


def canonical_key(data: Any) -> str:
    """Deterministic JSON encoding of spec-shaped data for cache keys."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)


def streams_verified() -> bool:
    """:func:`repro.rng.lockstep_streams_ok`, the runtime RNG replication
    check the numpy lockstep kernel, the compiled kernel and the fused
    dispatcher share; it runs its replay once per process."""
    from ..rng import lockstep_streams_ok

    return lockstep_streams_ok()
