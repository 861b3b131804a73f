"""Content-addressed on-disk cache of study results.

Studies are keyed by :meth:`repro.spec.StudySpec.spec_hash` — the hash of
the spec's semantic fields — so re-running the same spec (from a sweep, a
CLI invocation, another process) loads the stored result instead of
simulating again.  The store keeps the per-trial *summary* surface of a
study (counters, latencies, energy counts), which is everything the
aggregation API of :class:`~repro.sim.TrialStudy` consumes; per-slot prefix
arrays and traces are deliberately not cached (they are horizon-sized and
only needed by bound-checking experiments, which run uncached).

Layout: ``<root>/<hash[:2]>/<hash>.json``, written atomically.  Every
entry carries a **content checksum** (sha256 of its canonical payload)
that is verified on read: an entry that exists but cannot be parsed — or
parses but fails its checksum — is *corrupt*, not merely missing.  It is
moved to ``<root>/corrupt/`` (with a warning and a ``quarantine`` event on
any active :class:`~repro.sim.health.RunHealth`) so the evidence survives
for diagnosis while the caller transparently re-runs the study.  A missing
file stays a plain silent miss; entries written before checksums existed
verify as *legacy* (readable, unverifiable).  :meth:`StudyStore.scrub`
walks every entry and applies the same classification proactively —
``repro store scrub`` from the shell.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from .. import faults
from ..errors import SpecError
from .study import StudySpec

__all__ = [
    "CachedResult",
    "StudyStore",
    "payload_checksum",
    "record_result",
    "result_record",
]

_SCHEMA_VERSION = 1


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """sha256 of an entry's canonical JSON, ``checksum`` field excluded.

    The checksum is computed over the same sorted, compact serialization
    for writer and verifier, so any on-disk bit damage inside an entry that
    still parses as JSON (the failure mode a parse check cannot see) is
    caught on read.
    """
    body = {key: value for key, value in payload.items() if key != "checksum"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CachedResult:
    """Summary-level stand-in for a :class:`~repro.sim.SimulationResult`.

    Implements the scalar surface the study aggregation API uses
    (``total_*`` counters, latency/energy summaries, provenance).  Accessing
    per-slot data (prefix arrays, traces) is impossible by construction —
    cached studies are for metric aggregation, not bound replay.
    """

    total_successes: int
    total_arrivals: int
    total_active_slots: int
    total_jammed_slots: int
    unfinished_nodes: int
    horizon: int
    protocol_name: str = "protocol"
    adversary_name: str = "adversary"
    backend: str = "cached"
    wall_time_seconds: float = 0.0
    latency_values: List[int] = field(default_factory=list)
    broadcast_count_values: List[int] = field(default_factory=list)

    def latencies(self) -> List[int]:
        return list(self.latency_values)

    def broadcast_counts(self) -> List[int]:
        return list(self.broadcast_count_values)

    def mean_latency(self) -> float:
        if not self.latency_values:
            return float("nan")
        return float(np.mean(self.latency_values))

    def max_latency(self) -> Optional[int]:
        return max(self.latency_values) if self.latency_values else None

    @property
    def slots_per_second(self) -> float:
        if self.wall_time_seconds <= 0.0:
            return 0.0
        return self.horizon / self.wall_time_seconds

    def classical_throughput(self, t: Optional[int] = None) -> float:
        """Classical throughput at the horizon only (no prefixes are cached)."""
        if t is not None and t != self.horizon:
            raise SpecError(
                "cached results carry no per-slot prefixes; "
                "classical_throughput is only defined at the horizon "
                f"(t={t}, horizon={self.horizon})"
            )
        if self.total_active_slots == 0:
            return float("inf")
        return self.total_arrivals / self.total_active_slots

    def describe(self) -> str:
        return (
            f"{self.protocol_name} vs {self.adversary_name} [cached]: "
            f"{self.total_successes}/{self.total_arrivals} messages delivered "
            f"in {self.horizon} slots"
        )


def result_record(result) -> Dict[str, Any]:
    """JSON record of one result's summary surface (store/wire format)."""
    return {
        "successes": int(result.total_successes),
        "arrivals": int(result.total_arrivals),
        "active_slots": int(result.total_active_slots),
        "jammed_slots": int(result.total_jammed_slots),
        "unfinished": int(result.unfinished_nodes),
        "horizon": int(result.horizon),
        "protocol": result.protocol_name,
        "adversary": result.adversary_name,
        "backend": result.backend,
        "wall_time_seconds": float(result.wall_time_seconds),
        "latencies": [int(v) for v in result.latencies()],
        "broadcast_counts": [int(v) for v in result.broadcast_counts()],
    }


def record_result(record: Mapping[str, Any]) -> CachedResult:
    """Rehydrate a :class:`CachedResult` from its JSON record."""
    return CachedResult(
        total_successes=int(record["successes"]),
        total_arrivals=int(record["arrivals"]),
        total_active_slots=int(record["active_slots"]),
        total_jammed_slots=int(record["jammed_slots"]),
        unfinished_nodes=int(record["unfinished"]),
        horizon=int(record["horizon"]),
        protocol_name=str(record.get("protocol", "protocol")),
        adversary_name=str(record.get("adversary", "adversary")),
        backend=str(record.get("backend", "cached")),
        wall_time_seconds=float(record.get("wall_time_seconds", 0.0)),
        latency_values=[int(v) for v in record.get("latencies", [])],
        broadcast_count_values=[int(v) for v in record.get("broadcast_counts", [])],
    )


class StudyStore:
    """Directory-backed, content-addressed store of study summaries."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, spec_or_hash: Union[StudySpec, str]) -> Path:
        digest = (
            spec_or_hash.spec_hash()
            if isinstance(spec_or_hash, StudySpec)
            else str(spec_or_hash)
        )
        return self._root / digest[:2] / f"{digest}.json"

    def __contains__(self, spec_or_hash: Union[StudySpec, str]) -> bool:
        return self.path_for(spec_or_hash).exists()

    def _load_payload(self, path: Path) -> Optional[Dict[str, Any]]:
        """Read + verify one entry; quarantine and return ``None`` if corrupt.

        The single classification used by :meth:`get` and :meth:`scrub`:
        unreadable bytes, invalid JSON, a non-object payload and a checksum
        mismatch are all corruption (quarantined); a checksum-less entry
        from an older library version is legacy but valid.
        """
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            self._quarantine(path, f"unreadable entry: {exc}")
            return None
        except json.JSONDecodeError as exc:
            self._quarantine(path, f"invalid JSON: {exc}")
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "entry is not a JSON object")
            return None
        recorded = payload.get("checksum")
        if recorded is not None and recorded != payload_checksum(payload):
            self._quarantine(path, "checksum mismatch (content damaged)")
            return None
        return payload

    def get(self, spec: StudySpec):
        """The cached :class:`~repro.sim.TrialStudy`, or ``None`` on a miss.

        A missing entry is a silent miss.  An entry that exists but cannot
        be read or parsed — or whose content checksum no longer matches —
        is quarantined to ``<root>/corrupt/`` (warning + health event) and
        then reads as a miss, so the caller re-runs and overwrites it; the
        corrupt bytes stay on disk for diagnosis.  Schema-incompatible
        entries from older library versions are plain misses — they are
        valid files, just stale.
        """
        from ..sim.health import RunHealth
        from ..sim.runner import TrialStudy

        path = self.path_for(spec)
        if not path.exists():
            return None
        payload = self._load_payload(path)
        if payload is None:
            return None
        if payload.get("schema") != _SCHEMA_VERSION:
            return None
        study = TrialStudy(
            results=[record_result(r) for r in payload.get("results", [])],
            label=str(payload.get("label", "")),
            effective_workers=int(payload.get("effective_workers", 1)),
            from_cache=True,
            health=RunHealth.from_dict(payload.get("health") or {}),
        )
        return study

    def put(self, spec: StudySpec, study) -> Path:
        """Persist a study summary; returns the written path.

        Safe under concurrent same-hash writers across processes: each
        writer stages into its own ``mkstemp`` file and publishes with an
        atomic ``os.replace``, so the race resolves to
        *last-writer-wins-or-noop* — both writers serialized the identical
        deterministic payload — and a torn entry is impossible.
        """
        if getattr(study, "from_cache", False):
            # Re-serializing a cached study is a no-op by construction.
            return self.path_for(spec)
        for result in study.results:
            if not hasattr(result, "latencies"):
                raise SpecError("study results lack the summary surface to cache")
        health = getattr(study, "health", None)
        payload = {
            "schema": _SCHEMA_VERSION,
            "hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "label": study.label,
            "effective_workers": study.effective_workers,
            "results": [result_record(r) for r in study.results],
            # Health rides along so cache hits keep their provenance — a
            # sweep row served from the store shows the same
            # health_retries/failures/demotions as the run that filled it.
            "health": health.to_dict() if health is not None else {},
        }
        payload["checksum"] = payload_checksum(payload)
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: a concurrent reader sees either nothing or a
        # complete entry, never a torn write.
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # One dumps call runs the C encoder; json.dump would stream
                # the same text through the pure-Python one.
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        plan = faults.active_plan()
        if plan.fires("store-corrupt", hash=payload["hash"]):
            # Injected fault: truncate the just-published entry mid-JSON,
            # simulating a torn write from a crashed process.
            path.write_text(path.read_text()[: max(1, path.stat().st_size // 2)])
        return path

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry to ``<root>/corrupt/`` instead of hiding it."""
        from ..sim import health

        corrupt_dir = self._root / "corrupt"
        target = corrupt_dir / path.name
        try:
            corrupt_dir.mkdir(parents=True, exist_ok=True)
            # A concurrent quarantine of the same entry (another process hit
            # the same corruption first) may already hold the destination:
            # the second mover must neither raise nor clobber the evidence
            # the first one saved, so it picks the next free suffix.
            suffix = 0
            while target.exists():
                suffix += 1
                target = corrupt_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except FileNotFoundError:
            # The concurrent mover won outright — the source is gone, the
            # evidence is already in corrupt/.  Nothing to move or warn
            # about a second time.
            health.note(
                "quarantine", "store", f"{path.name}: {reason} (already moved)"
            )
            return
        except OSError:
            # Cannot move it (permissions, cross-device store): leave the
            # evidence in place; the caller still treats the read as a miss.
            target = path
        warnings.warn(
            f"study store entry {path.name} is corrupt ({reason}); "
            f"quarantined to {target} and treating as a cache miss",
            RuntimeWarning,
            stacklevel=3,
        )
        health.note("quarantine", "store", f"{path.name}: {reason}")

    def scrub(self) -> Dict[str, Any]:
        """Verify every entry; quarantine the corrupt ones; report.

        Walks each stored entry through the same read path as :meth:`get`
        (parse + checksum verification), so damage is found *before* a
        sweep trips over it.  Returns ``{"scanned", "ok", "legacy",
        "quarantined"}`` — ``ok`` counts checksum-verified entries,
        ``legacy`` the readable-but-unverifiable ones predating checksums,
        and ``quarantined`` lists the hashes moved to ``<root>/corrupt/``
        by this scrub (``scanned`` is the sum of all three).
        """
        scanned = 0
        ok = 0
        legacy = 0
        quarantined: List[str] = []
        if self._root.exists():
            for path in sorted(self._root.glob("*/*.json")):
                if path.parent.name == "corrupt":
                    continue
                scanned += 1
                payload = self._load_payload(path)
                if payload is None:
                    quarantined.append(path.stem)
                    continue
                if payload.get("checksum") is None:
                    legacy += 1
                else:
                    ok += 1
        return {
            "scanned": scanned,
            "ok": ok,
            "legacy": legacy,
            "quarantined": sorted(quarantined),
        }

    def entries(self) -> List[str]:
        """Hashes of all stored studies (sorted; quarantined entries excluded)."""
        if not self._root.exists():
            return []
        return sorted(
            p.stem
            for p in self._root.glob("*/*.json")
            if p.parent.name != "corrupt"
        )

    def corrupt_entries(self) -> List[str]:
        """File names quarantined to ``<root>/corrupt/`` (sorted)."""
        corrupt = self._root / "corrupt"
        if not corrupt.exists():
            return []
        return sorted(p.name for p in corrupt.glob("*.json"))
