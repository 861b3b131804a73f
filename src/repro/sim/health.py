"""Structured health reporting for study execution.

Every :class:`~repro.sim.TrialStudy` now carries a :class:`RunHealth`
record: shard retries and failures, backend demotion events with their
reasons, in-process fallbacks, and the effective degree of parallelism.
What used to be silent — the compiled tier quietly demoting to the numpy
lockstep kernel, a study kernel bailing to the per-trial ladder — is
recorded here and surfaced through ``TrialStudy.summary_row()``,
``repro sweep`` output and ``repro simulate --explain-backend``.

Deeply nested code (kernel dispatch, the study stores) reports through a context-local
collector rather than threading a ``health`` parameter through every
signature: the runner installs its study's record with :func:`collecting`,
and :func:`note` / :func:`note_demotion` append to whichever record is
active (no-ops otherwise).  Worker processes collect into their own record
and ship the events back to the parent alongside the shard results.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "HealthEvent",
    "RunHealth",
    "collecting",
    "note",
    "note_demotion",
]

#: Event kinds counted as shard failures by :attr:`RunHealth.shard_failures`.
_FAILURE_KINDS = ("crash", "hang", "error")


@dataclass(frozen=True)
class HealthEvent:
    """One thing that went wrong (or was silently worked around) during a run.

    ``kind`` is one of: ``crash`` / ``hang`` / ``error`` (shard
    failures), ``retry`` (a shard re-dispatched), ``fallback`` (a shard
    ran in-process), ``demotion`` (a backend handed the study to a slower
    tier), ``quarantine`` (a corrupt store entry was moved aside), ``shard-loss``
    (a sharded-store shard's own call raised ``OSError``: reads degraded
    to misses, writes to no-ops).
    """

    kind: str
    site: str
    detail: str = ""
    shard: Optional[int] = None
    attempt: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "site": self.site}
        if self.detail:
            data["detail"] = self.detail
        if self.shard is not None:
            data["shard"] = self.shard
        if self.attempt is not None:
            data["attempt"] = self.attempt
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HealthEvent":
        return cls(
            kind=str(data.get("kind", "")),
            site=str(data.get("site", "")),
            detail=str(data.get("detail", "")),
            shard=data.get("shard"),
            attempt=data.get("attempt"),
        )


@dataclass
class RunHealth:
    """Aggregated execution-health record of one study run."""

    events: List[HealthEvent] = field(default_factory=list)
    requested_workers: int = 1
    effective_workers: int = 1

    def record(
        self,
        kind: str,
        site: str,
        detail: str = "",
        shard: Optional[int] = None,
        attempt: Optional[int] = None,
    ) -> HealthEvent:
        event = HealthEvent(
            kind=kind, site=site, detail=detail, shard=shard, attempt=attempt
        )
        self.events.append(event)
        return event

    def extend(
        self, events: List[HealthEvent], shard: Optional[int] = None
    ) -> None:
        """Absorb a worker's events, annotating them with its shard index."""
        for event in events:
            if shard is not None and event.shard is None:
                event = replace(event, shard=shard)
            self.events.append(event)

    # ----------------------------------------------------------- aggregates

    @property
    def retries(self) -> int:
        return sum(1 for e in self.events if e.kind == "retry")

    @property
    def shard_failures(self) -> int:
        return sum(1 for e in self.events if e.kind in _FAILURE_KINDS)

    @property
    def demotions(self) -> List[HealthEvent]:
        return [e for e in self.events if e.kind == "demotion"]

    @property
    def fallbacks(self) -> List[HealthEvent]:
        return [e for e in self.events if e.kind == "fallback"]

    @property
    def shard_losses(self) -> List[HealthEvent]:
        return [e for e in self.events if e.kind == "shard-loss"]

    @property
    def degraded(self) -> bool:
        return bool(self.fallbacks)

    @property
    def clean(self) -> bool:
        return not self.events

    def summary_fields(self) -> Dict[str, float]:
        """Numeric health columns merged into ``TrialStudy.summary_row()``."""
        return {
            "health_retries": float(self.retries),
            "health_failures": float(self.shard_failures),
            "health_demotions": float(len(self.demotions)),
        }

    def describe(self) -> str:
        """One human line: 'clean' or the grouped event counts and reasons."""
        if self.clean:
            return "clean"
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        parts = [f"{kind}×{count}" for kind, count in sorted(counts.items())]
        reasons = sorted(
            {f"{e.site}: {e.detail}" for e in self.events if e.detail}
        )
        text = ", ".join(parts)
        if reasons:
            text += " (" + "; ".join(reasons) + ")"
        return text

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requested_workers": self.requested_workers,
            "effective_workers": self.effective_workers,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunHealth":
        return cls(
            events=[HealthEvent.from_dict(e) for e in data.get("events", [])],
            requested_workers=int(data.get("requested_workers", 1)),
            effective_workers=int(data.get("effective_workers", 1)),
        )


#: The record deep library code reports into (None outside a collected run).
_ACTIVE: ContextVar[Optional[RunHealth]] = ContextVar(
    "repro-run-health", default=None
)


@contextmanager
def collecting(health: RunHealth):
    """Route :func:`note` / :func:`note_demotion` calls into ``health``."""
    token = _ACTIVE.set(health)
    try:
        yield health
    finally:
        _ACTIVE.reset(token)


def note(
    kind: str,
    site: str,
    detail: str = "",
    shard: Optional[int] = None,
    attempt: Optional[int] = None,
) -> None:
    """Record an event on the active health record, if any (else a no-op)."""
    health = _ACTIVE.get()
    if health is not None:
        health.record(kind, site, detail, shard=shard, attempt=attempt)


def note_demotion(from_backend: str, to_backend: str, reason: str) -> None:
    """Record a backend demotion event with its reason."""
    note("demotion", from_backend, f"demoted to {to_backend}: {reason}")
