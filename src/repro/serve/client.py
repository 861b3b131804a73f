"""Synchronous client for the sweep service.

:class:`ServeClient` is the library behind ``repro sweep --server`` and
``repro client``: a blocking, connection-per-request TCP client that speaks
the protocol of :mod:`repro.serve.protocol` with nothing beyond the stdlib.
Results arrive as the store's summary records and are rehydrated into
:class:`~repro.sim.TrialStudy` objects by the store's own decoder
(:func:`~repro.spec.store.study_from_record`), so everything downstream —
``summary_row()``, ``sweep_rows``, the analysis tables — works identically
on served and local studies.

The client is *resilient by default*: every socket operation carries a
timeout (``timeout``, default 300 s — a dead server can never hang a sweep
forever), and transient failures — connection refused or reset, a
timeout, a server restarting mid-request — raise
:class:`~repro.errors.ServeRetriable` subclasses and are retried
``retries`` times with capped exponential backoff plus jitter, starting at
``backoff`` seconds.  A retry simply re-sends the whole request:
submissions are deduped server-side by ``spec_hash()``, so resubmitting is
an idempotent *reattach* — jobs that finished meanwhile are answered from
the server's table or store, which is what lets ``repro sweep --server``
ride out a server restart mid-sweep.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .. import faults
from ..errors import ServeError, ServeRetriable, ServeTimeout, ServeUnavailable
from ..spec.store import study_from_record
from ..spec.study import StudySpec
from ..spec.sweep import PlanResult
from .protocol import decode_line, encode_message

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT",
    "JobOutcome",
    "ServeClient",
]

#: Socket timeout in seconds.
DEFAULT_TIMEOUT = 300.0
#: Retries after the first attempt of a retriable request.
DEFAULT_RETRIES = 4
#: First backoff delay; doubles per retry up to :data:`BACKOFF_CAP`.
DEFAULT_BACKOFF = 0.25
BACKOFF_CAP = 5.0


@dataclass
class JobOutcome:
    """One job's terminal report as received from the server."""

    hash: str
    status: str
    cached: bool = False
    error: str = ""
    attempts: int = 0
    run_seconds: float = 0.0
    label: str = ""
    health: Dict[str, float] = field(default_factory=dict)
    study: Any = None

    @property
    def ok(self) -> bool:
        return self.status in ("done", "cached")

    @classmethod
    def from_event(cls, event: Mapping[str, Any]) -> "JobOutcome":
        study = None
        payload = event.get("study")
        if payload is not None:
            study = study_from_record(
                payload, from_cache=bool(payload.get("from_cache", False))
            )
        return cls(
            hash=str(event.get("hash", "")),
            status=str(event.get("status", "unknown")),
            cached=bool(event.get("cached", False)),
            error=str(event.get("error", "")),
            attempts=int(event.get("attempts", 0)),
            run_seconds=float(event.get("run_seconds", 0.0)),
            label=str(event.get("label", "")),
            health={
                key: float(value)
                for key, value in event.items()
                if key.startswith("health_")
            },
            study=study,
        )


class ServeClient:
    """Blocking client; one TCP connection per request, streams supported."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
    ) -> None:
        self._host = host
        self._port = int(port)
        if timeout is not None and float(timeout) <= 0:
            timeout = None  # 0 (or negative) disables the timeout entirely
        self._timeout = None if timeout is None else float(timeout)
        self._retries = int(retries)
        if self._retries < 0:
            raise ServeError("retries must be >= 0")
        self._backoff = float(backoff)
        if self._backoff < 0:
            raise ServeError("backoff must be >= 0 seconds")

    @classmethod
    def from_address(
        cls,
        address: str,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
    ) -> "ServeClient":
        """Build from a ``host:port`` string (``:port`` → localhost)."""
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ServeError(
                f"invalid server address {address!r}; expected host:port"
            )
        return cls(
            host or "127.0.0.1",
            int(port),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    # ------------------------------------------------------------ plumbing

    def _connect(self) -> socket.socket:
        try:
            return socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        except socket.timeout as exc:
            raise ServeTimeout(
                f"connecting to sweep server at {self._host}:{self._port} "
                f"timed out after {self._timeout:g}s"
            ) from exc
        except OSError as exc:
            raise ServeUnavailable(
                f"cannot reach sweep server at {self._host}:{self._port}: {exc}"
            ) from exc

    def _request(
        self, message: Dict[str, Any], attempt: int = 0
    ) -> Iterator[Dict[str, Any]]:
        """Send one request; yield the ack and then any streamed events."""
        conn = self._connect()
        try:
            conn.sendall(encode_message(message))
            if faults.active_plan().fires(
                "conn-drop", op=str(message.get("op", "")), attempt=attempt
            ):
                # Injected mid-request drop: the request may already be on
                # the server's side (exactly the reattach-on-retry case).
                raise ServeUnavailable(
                    f"connection to sweep server at {self._host}:"
                    f"{self._port} dropped (injected conn-drop)"
                )
            reader = conn.makefile("rb")
            try:
                for line in reader:
                    if not line.strip():
                        continue
                    yield decode_line(line)
            finally:
                reader.close()
        except socket.timeout as exc:
            raise ServeTimeout(
                f"sweep server at {self._host}:{self._port} timed out "
                f"after {self._timeout:g}s"
            ) from exc
        except OSError as exc:
            # Reset/refused mid-request (e.g. the server shut down between
            # our write and its reply) is transient, not a programming
            # error: the caller may retry the whole request.
            raise ServeUnavailable(
                f"connection to sweep server at {self._host}:{self._port} "
                f"failed: {exc}"
            ) from exc
        finally:
            conn.close()

    def _collect(
        self,
        message: Dict[str, Any],
        expect_stream: bool,
        retriable: bool = True,
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """One request with retries: the validated ack plus streamed events.

        Retriable failures (:class:`ServeRetriable`: refused, reset, timed
        out, closed-without-answer) re-send the *whole* request after a
        capped exponential backoff with jitter.  Server-side dedupe by
        ``spec_hash()`` makes the re-send an idempotent reattach.
        """
        attempts = (self._retries + 1) if retriable else 1
        delay = self._backoff
        last: Optional[ServeRetriable] = None
        for attempt in range(attempts):
            try:
                return self._collect_once(message, expect_stream, attempt)
            except ServeRetriable as exc:
                last = exc
                if attempt + 1 >= attempts:
                    break
                time.sleep(delay * (0.5 + random.random()))
                delay = min(delay * 2.0, BACKOFF_CAP)
        assert last is not None
        raise last

    def _collect_once(
        self, message: Dict[str, Any], expect_stream: bool, attempt: int
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        ack: Optional[Dict[str, Any]] = None
        events: List[Dict[str, Any]] = []
        ended = False
        for received in self._request(message, attempt):
            if ack is None:
                if not received.get("ok", False):
                    raise ServeError(
                        received.get("error", "server rejected the request")
                    )
                ack = received
                if not expect_stream:
                    break
                continue
            if received.get("event") == "end":
                ended = True
                break
            events.append(received)
        if ack is None:
            raise ServeUnavailable(
                f"sweep server at {self._host}:{self._port} closed the "
                "connection without answering"
            )
        if expect_stream and not ended:
            # A server stopping mid-stream (a restart): the re-sent request
            # reattaches to the jobs by spec hash.
            raise ServeUnavailable(
                f"sweep server at {self._host}:{self._port} closed the "
                "stream before its end event"
            )
        return ack, events

    # ------------------------------------------------------------- library

    def submit(
        self,
        specs: Union[StudySpec, Sequence[StudySpec]],
        wait: bool = True,
        priority: int = 0,
    ) -> List[JobOutcome]:
        """Submit spec(s); with ``wait`` return terminal outcomes in spec
        order, otherwise the submission statuses."""
        if isinstance(specs, StudySpec):
            spec_list = [specs]
        else:
            spec_list = list(specs)
        message = {
            "op": "submit",
            "specs": [spec.to_dict() for spec in spec_list],
            "priority": int(priority),
            "wait": bool(wait),
        }
        ack, events = self._collect(message, expect_stream=wait)
        if not wait:
            return [JobOutcome.from_event(row) for row in ack.get("jobs", [])]
        outcomes = {
            event.get("hash"): JobOutcome.from_event(event) for event in events
        }
        ordered: List[JobOutcome] = []
        for spec in spec_list:
            digest = spec.spec_hash()
            outcome = outcomes.get(digest)
            if outcome is None:
                raise ServeError(f"server streamed no result for {digest[:12]}")
            ordered.append(outcome)
        return ordered

    def run_plan(
        self,
        specs: Sequence[StudySpec],
        overrides: Optional[Sequence[Mapping[str, Any]]] = None,
        priority: int = 0,
    ) -> List[PlanResult]:
        """Execute specs remotely, shaped like ``StudyPlan.run`` results.

        The thin-client path of ``repro sweep --server``: rows from the
        returned list render through the exact same
        :func:`~repro.spec.sweep.sweep_rows` pipeline as a local plan.
        """
        if overrides is not None and len(overrides) != len(specs):
            raise ServeError("overrides must align one-to-one with specs")
        outcomes = self.submit(list(specs), wait=True, priority=priority)
        results: List[PlanResult] = []
        for index, (spec, outcome) in enumerate(zip(specs, outcomes)):
            results.append(
                PlanResult(
                    spec=spec,
                    study=outcome.study,
                    overrides=dict(overrides[index]) if overrides else {},
                    cached=outcome.cached,
                    run_seconds=outcome.run_seconds,
                    failed=not outcome.ok,
                    error=outcome.error if not outcome.ok else "",
                    attempts=outcome.attempts,
                )
            )
        return results

    def status(
        self, hashes: Optional[Sequence[str]] = None
    ) -> List[Dict[str, Any]]:
        message: Dict[str, Any] = {"op": "status"}
        if hashes is not None:
            message["hashes"] = [str(h) for h in hashes]
        ack, _ = self._collect(message, expect_stream=False)
        return list(ack.get("jobs", []))

    def results(
        self, hashes: Sequence[str], wait: bool = True
    ) -> List[JobOutcome]:
        message = {
            "op": "result",
            "hashes": [str(h) for h in hashes],
            "wait": bool(wait),
        }
        _, events = self._collect(message, expect_stream=True)
        return [JobOutcome.from_event(event) for event in events]

    def stats(self) -> Dict[str, Any]:
        ack, _ = self._collect({"op": "stats"}, expect_stream=False)
        return {
            key: value for key, value in ack.items() if key not in ("ok", "op")
        }

    def shutdown(self) -> None:
        # Never retried: a lost ack is indistinguishable from a server that
        # shut down before replying, and re-sending could kill a freshly
        # restarted server.
        self._collect({"op": "shutdown"}, expect_stream=False, retriable=False)

    def ping(self) -> bool:
        """Whether a server answers at the address *right now* — a liveness
        probe, so no retries (no exception either way)."""
        try:
            self._collect({"op": "stats"}, expect_stream=False, retriable=False)
            return True
        except ServeError:
            return False
