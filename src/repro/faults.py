"""Deterministic, spec-able fault injection for the execution stack.

The paper's subject is robustness against adversarial interference; this
module gives the *harness* the same adversary.  A :class:`FaultPlan` is a
seeded, JSON-round-trippable description of which failures to inject where,
so every failure mode the resilience layer handles — worker crashes, worker
hangs, kernel exceptions mid-study, store file corruption — is replayable
bit for bit in tests and CI.

Injection sites (the string each instrumented component asks about):

=====================  ======================================================
``worker-crash``       the forked shard worker calls ``os._exit`` before
                       running its trials (coords: ``shard``, ``attempt``,
                       ``trials``)
``worker-hang``        the shard worker sleeps past any reasonable deadline
                       (same coords)
``kernel``             a simulated kernel exception mid-study
                       (:class:`~repro.errors.FaultInjected` raised from the
                       study dispatch path; coords: ``trials``)
``sweep-point``        a point of a :class:`~repro.spec.StudyPlan` run — a
                       local sweep point or a sweep-service job — fails
                       before execution and is never stored (coords:
                       ``point``, its index in the plan or claimed job
                       group, and ``hash``, its spec hash)
``store-corrupt``      a just-written study-store entry is truncated on disk
                       (coords: ``hash``)
``fused-group``        a fused multi-study dispatch fails before execution
                       (coords: ``points``) — every member falls back to
                       per-point dispatch; nothing was stored, so sibling
                       points are unaffected
``conn-drop``          the service client's TCP connection drops mid-request
                       (coords: ``op``, ``attempt``) — the client must
                       back off, reconnect and reattach by spec hash
``wal-torn``           the serve journal's just-appended record is torn
                       mid-line on disk, as if the daemon died mid-write
                       (coords: ``hash``, ``status``) — recovery must
                       tolerate the torn trailing line
``dispatcher-hang``    the thread running a claimed serve job group
                       wedges (coords: ``hash`` of the lead job,
                       ``worker``) — the job deadline must requeue the
                       group's jobs, then fail them once requeues run out
=====================  ======================================================

Rules either name exact coordinates (``{"site": "worker-crash", "shard": 1,
"attempt": 0}`` — fire exactly when shard 1 runs its first attempt) or fire
at a deterministic pseudo-random ``rate`` derived from the plan seed and the
coordinates (``{"site": "worker-crash", "rate": 0.25}``), so a "chaos" CI
leg produces the same faults on every run.  Omitted coordinates are
wildcards.  ``times`` caps how often a rule fires per process.

Activation:

* ``REPRO_FAULTS`` environment variable — inline JSON, or ``@/path/to.json``
  (inherited by forked workers);
* :func:`activate` / :func:`deactivate` / the :func:`injected` context
  manager (tests).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import FaultInjected, SpecError

__all__ = [
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "activate",
    "deactivate",
    "injected",
]

#: Sites a rule may target; kept in one place so typos in plans fail loudly.
KNOWN_SITES = (
    "worker-crash",
    "worker-hang",
    "kernel",
    "sweep-point",
    "store-corrupt",
    "fused-group",
    "conn-drop",
    "wal-torn",
    "dispatcher-hang",
)


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: a site, optional coordinates, and a firing mode.

    ``match`` pins coordinates (omitted keys are wildcards); ``rate`` makes
    the rule probabilistic but *deterministic* — whether it fires is a pure
    hash of (plan seed, site, coordinates), identical across processes and
    re-runs.  ``times`` bounds firings per process (``None`` = unlimited),
    letting a deterministic rule fire once and then let a retry succeed.
    """

    site: str
    match: Mapping[str, Any] = field(default_factory=dict)
    rate: float = 1.0
    times: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise SpecError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(KNOWN_SITES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise SpecError(f"fault rate must be in [0, 1], got {self.rate!r}")
        if self.times is not None and self.times < 1:
            raise SpecError(f"fault times must be >= 1, got {self.times!r}")
        object.__setattr__(self, "match", dict(self.match))

    def matches(self, coords: Mapping[str, Any]) -> bool:
        return all(coords.get(key) == value for key, value in self.match.items())

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"site": self.site, **self.match}
        if self.rate != 1.0:
            data["rate"] = self.rate
        if self.times is not None:
            data["times"] = self.times
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        if not isinstance(data, Mapping) or "site" not in data:
            raise SpecError(f"fault rule must be a mapping with a 'site': {data!r}")
        extra = {
            key: value
            for key, value in data.items()
            if key not in ("site", "rate", "times")
        }
        return cls(
            site=str(data["site"]),
            match=extra,
            rate=float(data.get("rate", 1.0)),
            times=data.get("times"),
        )


def _coord_digest(seed: int, site: str, coords: Mapping[str, Any]) -> float:
    """Deterministic uniform [0, 1) draw for a (seed, site, coords) tuple."""
    text = json.dumps(
        {"seed": seed, "site": site, "coords": {k: coords[k] for k in sorted(coords)}},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s, JSON-round-trippable like the specs."""

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0
    _fired: Dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rules = [
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in self.rules
        ]

    def fires(self, site: str, **coords: Any) -> bool:
        """Whether an injected fault fires at ``site`` with these coordinates.

        Deterministic: exact-match rules fire whenever their pinned
        coordinates match; ``rate`` rules fire iff the coordinate hash lands
        under the rate.  Each rule's per-process ``times`` budget is
        decremented on firing.
        """
        for index, rule in enumerate(self.rules):
            if rule.site != site or not rule.matches(coords):
                continue
            if rule.times is not None and self._fired.get(index, 0) >= rule.times:
                continue
            if rule.rate < 1.0 and _coord_digest(self.seed, site, coords) >= rule.rate:
                continue
            self._fired[index] = self._fired.get(index, 0) + 1
            return True
        return False

    def maybe_raise(self, site: str, **coords: Any) -> None:
        """Raise :class:`~repro.errors.FaultInjected` when a rule fires."""
        if self.fires(site, **coords):
            raise FaultInjected(site, detail=_describe_coords(coords))

    @property
    def empty(self) -> bool:
        return not self.rules

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise SpecError(f"fault plan must be a mapping: {data!r}")
        unknown = sorted(set(data) - {"seed", "rules"})
        if unknown:
            raise SpecError(f"unknown fault plan field(s): {', '.join(unknown)}")
        rules = data.get("rules", [])
        if not isinstance(rules, Sequence) or isinstance(rules, (str, bytes)):
            raise SpecError("fault plan 'rules' must be a list")
        return cls(
            rules=[FaultRule.from_dict(rule) for rule in rules],
            seed=int(data.get("seed", 0)),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid fault plan JSON: {exc}") from exc
        return cls.from_dict(data)


#: The always-inactive plan returned when no faults are configured.
_NO_FAULTS = FaultPlan()

#: (raw REPRO_FAULTS value, parsed plan) — re-parsed when the env changes.
_ENV_CACHE: Tuple[Optional[str], FaultPlan] = (None, _NO_FAULTS)

#: Plan installed programmatically; takes precedence over the environment.
_ACTIVE: Optional[FaultPlan] = None


def _plan_from_env(raw: str) -> FaultPlan:
    text = raw.strip()
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return FaultPlan.from_json(text)


def active_plan() -> FaultPlan:
    """The currently active fault plan (an empty, never-firing plan if none).

    Programmatic activation (:func:`activate` / :func:`injected`) wins over
    the ``REPRO_FAULTS`` environment variable.  Forked workers inherit the
    parent's activation either way.
    """
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get("REPRO_FAULTS")
    if not raw:
        return _NO_FAULTS
    if _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, _plan_from_env(raw))
    return _ENV_CACHE[1]


def activate(plan: Union[FaultPlan, Mapping[str, Any], str]) -> FaultPlan:
    """Install a fault plan for this process (and future forked children)."""
    global _ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.from_json(plan)
    elif not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_dict(plan)
    _ACTIVE = plan
    return plan


def deactivate() -> None:
    """Remove any programmatically installed plan (environment still applies)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def injected(plan: Union[FaultPlan, Mapping[str, Any], str]):
    """Context manager: activate ``plan`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    installed = activate(plan)
    try:
        yield installed
    finally:
        _ACTIVE = previous


def _describe_coords(coords: Mapping[str, Any]) -> str:
    return ", ".join(f"{key}={coords[key]}" for key in sorted(coords))
