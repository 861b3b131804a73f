"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """Raised when a simulation, protocol or adversary is misconfigured."""


class SpecError(ConfigurationError):
    """Raised when a declarative spec is invalid or an object is not spec-able.

    Subclasses :class:`ConfigurationError` so existing ``except
    ConfigurationError`` handlers (CLI, experiments) also cover spec problems.
    """


class ProtocolError(ReproError):
    """Raised when a protocol implementation violates the channel contract."""


class AdversaryError(ReproError):
    """Raised when an adversary produces an invalid action."""


class FaultInjected(ReproError):
    """Raised (or triggered) by a deterministic :class:`repro.faults.FaultPlan`.

    Never raised in production configurations — only when a fault plan is
    activated via ``REPRO_FAULTS`` or :func:`repro.faults.injected`.
    """

    def __init__(self, site: str, detail: str = "") -> None:
        super().__init__(
            f"injected fault at {site!r}" + (f": {detail}" if detail else "")
        )
        self.site = site


class ServeError(ReproError):
    """Raised by the sweep service: protocol violations, unreachable or
    misbehaving servers, and failed jobs surfaced to a waiting client."""


class ServeRetriable(ServeError):
    """A transient service failure the client may safely retry.

    Every service request is idempotent — jobs are deduped by spec hash —
    so a request that timed out or lost its connection can be replayed
    verbatim: the client's backoff loop catches exactly this type.
    """


class ServeTimeout(ServeRetriable):
    """A socket operation against the sweep server exceeded the client's
    ``timeout``."""


class ServeUnavailable(ServeRetriable):
    """The sweep server could not be reached or dropped the connection
    mid-request (refused, reset, or restarting)."""


class AnalysisError(ReproError):
    """Raised when analysis routines receive unusable data."""


class ExperimentError(ReproError):
    """Raised when an experiment cannot be run or produces no data."""
