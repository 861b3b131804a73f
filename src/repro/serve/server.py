"""The sweep-service daemon: async job queue, dedupe, dispatch.

:class:`SweepServer` is a stdlib-``asyncio`` TCP daemon speaking the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`.  Its
execution model:

* Every submitted :class:`~repro.spec.StudySpec` becomes a :class:`Job`
  keyed by ``spec_hash()``.  Submitting a spec whose job is already queued
  or running *attaches* to it — one execution, every submitter receives the
  result.  A spec already present in the store is answered instantly from
  disk without touching the queue.
* Queued jobs wait in an ``asyncio.PriorityQueue`` (lower ``priority``
  first, FIFO within a priority) and are drained by ``workers`` dispatcher
  tasks.  A dispatcher claims its lead job together with every queued job
  sharing the lead's :func:`~repro.sim.backends.fused.fusion_key` and runs
  the group, of one job or many, in one thread.
* A claimed group runs as one :class:`~repro.spec.StudyPlan` against the
  server's store with ``on_error="skip"`` — the same code as a local
  sweep, so served results are seed-for-seed identical to
  ``StudyPlan.run``.  Two or more store misses run as one fused lockstep
  run (a fused failure degrades each member to its own
  ``StudySpec.run``), each executed job is written back once, and a job
  whose run raises fails alone.  A submit carrying a spec with a metric
  pipeline is refused whole: the wire payload is the store's summary
  record, which keeps no per-slot counters for a pipeline to reduce.
  Every job keeps its own status row, dedupe entry and ``executed`` /
  ``failed`` accounting, and :class:`~repro.sim.health.RunHealth` events
  of the supervised worker pool (crashes, retries, demotions) surface in
  job status as ``health_retries`` / ``health_failures`` /
  ``health_demotions``.
* With a ``store_budget``, the store is brought back under its byte budget
  after every executed job (LRU-by-atime eviction; entries written during
  the current server session are never evicted).

Crash safety (``journal=...``): every job transition is appended to a
:class:`~repro.serve.wal.ServeJournal` write-ahead log *before* the client
hears about it.  A server restarted over the same journal re-queues every
accepted-but-unfinished job (:meth:`SweepServer.start` replays the WAL) and
answers already-completed ones straight from the store, so a SIGKILL loses
no acknowledged work.  Claimed groups additionally carry an execution
``deadline``, the service's one hang detector: an overrun is re-queued up
to ``requeues`` times and then failed (the execution thread is a per-group
daemon thread, so a hung group leaks a thread instead of wedging a
dispatcher).  :meth:`SweepServer.drain` is the graceful counterpart to
shutdown: refuse new submissions, finish and journal the backlog, then
stop.

:class:`BackgroundServer` runs the whole daemon on a private event loop in
a daemon thread — the harness used by the test suite and the
``service-submit-roundtrip`` benchmark.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import faults
from ..errors import ReproError, ServeError
from ..spec.store import study_record
from ..spec.study import StudySpec
from ..spec.sweep import StudyPlan
from .protocol import (
    KNOWN_OPS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_line,
    encode_message,
    error_message,
)
from .sharded import ShardedStudyStore
from .wal import ServeJournal

__all__ = [
    "BackgroundServer",
    "Job",
    "ServerStats",
    "SweepServer",
    "study_payload",
]

#: Job lifecycle states.  ``cached`` is terminal like ``done`` but records
#: that the store answered without an execution.
JOB_STATES = ("queued", "running", "done", "failed", "cached")


def study_payload(study) -> Dict[str, Any]:
    """Wire form of a study: the store's summary record + provenance."""
    return {
        **study_record(study),
        "from_cache": bool(getattr(study, "from_cache", False)),
    }


@dataclass
class Job:
    """One deduped unit of work: a spec, its state, and its result payload."""

    spec: StudySpec
    digest: str
    priority: int = 0
    status: str = "queued"
    submitters: int = 1
    attempts: int = 0
    requeued: int = 0
    error: str = ""
    run_seconds: float = 0.0
    payload: Optional[Dict[str, Any]] = None
    health: Dict[str, float] = field(default_factory=dict)
    event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed", "cached")

    def status_row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "hash": self.digest,
            "label": self.spec.display_label,
            "status": self.status,
            "cached": self.status == "cached",
            "priority": self.priority,
            "submitters": self.submitters,
            "attempts": self.attempts,
            "requeued": self.requeued,
            "run_seconds": self.run_seconds,
        }
        if self.error:
            row["error"] = self.error
        row.update(self.health)
        return row


@dataclass
class ServerStats:
    """Monotonic counters reported by the ``stats`` op."""

    submitted: int = 0
    deduped: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    evicted: int = 0
    recovered: int = 0
    requeued: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": self.failed,
            "evicted": self.evicted,
            "recovered": self.recovered,
            "requeued": self.requeued,
        }


class SweepServer:
    """Asyncio TCP server executing StudySpecs through a deduped job queue."""

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store_budget: Optional[int] = None,
        journal: Optional[Union[str, Path, ServeJournal]] = None,
        deadline: Optional[float] = None,
        requeues: int = 1,
    ) -> None:
        if workers < 1:
            raise ServeError("the sweep server needs at least one worker")
        if store_budget is not None and store_budget < 0:
            raise ServeError("store budget must be >= 0 bytes")
        if deadline is not None and deadline <= 0:
            raise ServeError("job deadline must be > 0 seconds")
        if requeues < 0:
            raise ServeError("requeue cap must be >= 0")
        self._store = store
        self._host = host
        self._port = int(port)
        self._workers = int(workers)
        self._budget = store_budget
        if isinstance(journal, (str, Path)):
            journal = ServeJournal(journal)
        self._journal = journal
        self._deadline = None if deadline is None else float(deadline)
        self._requeues = int(requeues)
        self._jobs: Dict[str, Job] = {}
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()
        self._stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: List[asyncio.Task] = []
        # One handler task per open client connection.
        self._connections: Set[asyncio.Task] = set()
        self._draining = False
        self._shutdown = asyncio.Event()
        self._started_at = 0.0

    # ---------------------------------------------------------- lifecycle

    @property
    def stats(self) -> ServerStats:
        return self._stats

    @property
    def store(self):
        return self._store

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound — resolves ``port=0`` ephemerals."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._accept,
            self._host,
            self._port,
            limit=MAX_LINE_BYTES,
        )
        self._started_at = time.monotonic()
        self._recover_backlog()
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(index))
            for index in range(self._workers)
        ]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish the backlog, stop.

        The listener closes (no new connections), in-flight submissions are
        rejected with a retriable error, and the method returns only after
        every queued/running job reached a terminal, journaled state — the
        SIGTERM path of ``repro serve``.
        """
        self._draining = True
        await self._close_listener()
        while any(
            job.status in ("queued", "running") for job in self._jobs.values()
        ):
            await asyncio.sleep(0.05)
        self._shutdown.set()

    @property
    def draining(self) -> bool:
        return self._draining

    async def _close_listener(self) -> None:
        """Stop accepting connections, then close the listening sockets.

        asyncio builds a transport one loop turn after accepting its
        socket, and rejects it half-built (leaking the socket) once the
        server is closed.  So the listener stops polling first, and accepts
        already under way get that turn before the close.
        """
        if self._server is None:
            return
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            with contextlib.suppress(NotImplementedError):
                loop.remove_reader(sock)
        await asyncio.sleep(0)
        self._server.close()

    async def stop(self) -> None:
        # A connection that reaches its handler from now on ends at once.
        self._shutdown.set()
        await self._close_listener()
        if self._server is not None:
            # Open connections close first: on Python 3.12+ wait_closed()
            # waits for them, and a client whose stream ends before its
            # "end" event reattaches to the next server.
            await _cancel_all(list(self._connections))
            await self._server.wait_closed()
        await _cancel_all(list(self._dispatchers))

    # ----------------------------------------------------------- recovery

    def _recover_backlog(self) -> int:
        """Re-queue every journaled job that never reached a terminal state.

        Runs before the dispatchers start.  Each backlog spec goes through
        the ordinary :meth:`_submit_spec` path, so jobs whose results did
        land in the store before the crash (the put-then-journal gap) are
        answered as cache hits instead of re-executing.
        """
        if self._journal is None:
            return 0
        recovered = 0
        for accepted in self._journal.unfinished().values():
            try:
                spec = StudySpec.from_dict(accepted["spec"])
            except ReproError:
                continue  # an unparseable journaled spec cannot be re-run
            if spec.pipeline is not None:
                continue  # refused at submit; only an older journal holds one
            try:
                priority = int(accepted.get("priority", 0))
            except (TypeError, ValueError):
                priority = 0
            self._submit_spec(spec, priority)
            recovered += 1
        self._stats.recovered += recovered
        return recovered

    def _journal_record(
        self,
        digest: str,
        status: str,
        spec: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> None:
        if self._journal is None:
            return
        try:
            self._journal.record(digest, status, spec=spec, **extra)
        except OSError:
            # A sick journal disk costs durability of this one transition,
            # not availability of the whole service.
            pass

    # ---------------------------------------------------------- job intake

    def _submit_spec(self, spec: StudySpec, priority: int) -> Job:
        """Dedupe-aware submission; never blocks on execution."""
        digest = spec.spec_hash()
        self._stats.submitted += 1
        job = self._jobs.get(digest)
        if job is not None:
            if job.status in ("queued", "running"):
                # Attach: this submitter rides the in-flight execution.
                job.submitters += 1
                self._stats.deduped += 1
                return job
            if job.status in ("done", "cached"):
                job.submitters += 1
                self._stats.cache_hits += 1
                return job
            # failed: fall through and re-queue the same job record.
        if job is None:
            cached = self._store_get(spec)
            if cached is not None:
                job = Job(
                    spec=spec,
                    digest=digest,
                    priority=priority,
                    status="cached",
                    payload=study_payload(cached),
                )
                job.event.set()
                self._jobs[digest] = job
                self._stats.cache_hits += 1
                # Terminal in the WAL too, or every restart would re-queue it.
                self._journal_record(digest, "cached")
                return job
            job = Job(spec=spec, digest=digest, priority=priority)
            self._jobs[digest] = job
        else:
            job.status = "queued"
            job.error = ""
            job.requeued = 0
            job.priority = priority
            job.event = asyncio.Event()
        # WAL before ack: once a client hears "accepted", a restarted server
        # can always reconstruct the job from this record alone.
        self._journal_record(
            digest, "accepted", spec=spec.to_dict(), priority=priority
        )
        self._queue.put_nowait((priority, next(self._seq), digest))
        return job

    def _store_get(self, spec: StudySpec):
        if self._store is None:
            return None
        try:
            return self._store.get(spec)
        except ReproError:
            # A sick store must not take submissions down with it; the job
            # simply executes as a cache miss.
            return None

    # ------------------------------------------------------------ dispatch

    def _run_in_thread(self, fn, *args) -> "asyncio.Future":
        """Run ``fn(*args)`` in a fresh daemon thread; await the future.

        One thread per claimed group rather than a bounded pool: a group
        that hangs forever leaks one daemon thread instead of permanently
        occupying a pool slot, so dispatch capacity survives any number of
        hung groups.  The resolver checks ``future.cancelled()`` because a
        deadline overrun (``asyncio.wait_for``) cancels the future while
        the thread is still running — its late result must be discarded,
        not crash.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def resolve(result: Any, exc: Optional[BaseException]) -> None:
            if future.cancelled():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)

        def runner() -> None:
            try:
                result = fn(*args)
            except BaseException as exc:  # noqa: BLE001 — shipped to the loop
                outcome: Tuple[Any, Optional[BaseException]] = (None, exc)
            else:
                outcome = (result, None)
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(resolve, *outcome)

        threading.Thread(
            target=runner, name="repro-serve-job", daemon=True
        ).start()
        return future

    async def _await_deadline(self, future: "asyncio.Future") -> Any:
        if self._deadline is None:
            return await future
        start = time.perf_counter()
        result = await asyncio.wait_for(future, timeout=self._deadline)
        if time.perf_counter() - start > self._deadline:
            # The result came in after the deadline but before the loop ran
            # its timeout (the job thread held the GIL): it is still late.
            raise asyncio.TimeoutError
        return result

    def _requeue_or_fail(self, job: Job, reason: str) -> None:
        """Deadline recovery: re-queue up to the cap, then fail.

        The job keeps its ``event`` across a requeue — waiters attached to
        the first attempt must see the eventual outcome, whichever attempt
        produces it.
        """
        if job.finished:
            return
        if job.requeued < self._requeues:
            job.requeued += 1
            job.status = "queued"
            job.error = ""
            self._stats.requeued += 1
            self._journal_record(job.digest, "requeued", reason=reason)
            self._queue.put_nowait(
                (job.priority, next(self._seq), job.digest)
            )
            return
        job.error = reason
        job.status = "failed"
        self._stats.failed += 1
        self._journal_record(job.digest, "failed", error=reason)
        job.event.set()

    async def _dispatch_loop(self, worker: int = 0) -> None:
        """Claim the next queued job plus every queued job it can fuse
        with, and run the group, of one job or many, in one thread under
        the job deadline."""
        while True:
            _priority, _seq, digest = await self._queue.get()
            job = self._jobs.get(digest)
            if job is None or job.status != "queued":
                continue  # stale queue entry (e.g. resubmitted meanwhile)
            group = [job, *self._drain_fusable(job)]
            for member in group:
                member.status = "running"
                member.attempts += 1
                self._journal_record(member.digest, "running")
            wedged = faults.active_plan().fires(
                "dispatcher-hang", hash=digest, worker=worker
            )
            start = time.perf_counter()
            try:
                outcomes = await self._await_deadline(
                    self._run_in_thread(
                        self._execute, [member.spec for member in group], wedged
                    )
                )
            except asyncio.TimeoutError:
                elapsed = time.perf_counter() - start
                for member in group:
                    member.run_seconds = elapsed
                    self._requeue_or_fail(
                        member, f"deadline: exceeded {self._deadline:g}s"
                    )
                continue
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
                outcomes = [
                    ("failed", f"{type(exc).__name__}: {exc}", {})
                    for _ in group
                ]
            elapsed = time.perf_counter() - start
            total_trials = sum(member.spec.trials for member in group)
            for member, (status, value, health) in zip(group, outcomes):
                if status == "done":
                    member.payload = value
                    member.health = health
                    member.status = "done"
                    self._stats.executed += 1
                    self._journal_record(member.digest, "done")
                else:
                    member.error = value
                    member.status = "failed"
                    self._stats.failed += 1
                    self._journal_record(member.digest, "failed", error=value)
                member.run_seconds = (
                    elapsed * member.spec.trials / max(1, total_trials)
                )
                member.event.set()

    def _drain_fusable(self, lead: Job, cap: int = 16) -> List[Job]:
        """Queued jobs fusable with ``lead``, pulled without blocking.

        Runs synchronously on the event loop (no awaits), so the drain is
        atomic with respect to the other dispatcher tasks.  Entries whose
        jobs cannot fuse with the lead are re-queued with their original
        ordering tuple; stale entries are dropped exactly as the dispatch
        loop would drop them.  The group is bounded by ``cap`` jobs and the
        fused block's trial budget at the group's largest horizon.
        """
        from ..sim.backends.fused import fusion_budget, fusion_key

        key = fusion_key(lead.spec)
        if key is None:
            return []
        trials, horizon = lead.spec.trials, lead.spec.horizon
        if trials > fusion_budget(horizon):
            return []
        group: List[Job] = []
        requeue: List[Tuple[int, int, str]] = []
        while len(group) + 1 < cap:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            candidate = self._jobs.get(entry[2])
            if candidate is None or candidate.status != "queued":
                continue  # stale queue entry
            spec = candidate.spec
            widest = max(horizon, spec.horizon)
            if (
                spec.trials + trials <= fusion_budget(widest)
                and fusion_key(spec) == key
            ):
                group.append(candidate)
                trials += spec.trials
                horizon = widest
            else:
                requeue.append(entry)
        for entry in requeue:
            self._queue.put_nowait(entry)
        return group

    def _execute(
        self, specs: Sequence[StudySpec], wedged: bool
    ) -> List[Tuple[str, Any, Dict[str, float]]]:
        """Run a claimed job group in its thread; one outcome per job.

        The group is one :class:`~repro.spec.StudyPlan` run against the
        server's store with ``on_error="skip"``, so a job that raises
        (including an injected ``sweep-point`` fault) fails alone.
        Outcomes are ``("done", payload, health)`` or
        ``("failed", error_text, {})``, aligned with ``specs``.
        """
        if wedged:
            # Injected dispatcher-hang: the group stops making progress, and
            # only its deadline recovers the jobs.
            time.sleep(3600.0)
        outcomes: List[Tuple[str, Any, Dict[str, float]]] = []
        for point in StudyPlan(specs).run(store=self._store, on_error="skip"):
            if point.failed:
                outcomes.append(("failed", point.error, {}))
            else:
                health = point.study.health.summary_fields()
                outcomes.append(("done", study_payload(point.study), health))
        if self._budget is not None and hasattr(self._store, "evict"):
            report = self._store.evict(self._budget)
            self._stats.evicted += len(report["evicted"])
        return outcomes

    # --------------------------------------------------------- connections

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Run each connection as a task the server owns, so stop() can
        cancel it (a handler task asyncio owned would be logged as failed
        on Python 3.11 when cancelled).  The connection closes however the
        task ends, even when it is cancelled before its first step."""
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        task.add_done_callback(lambda _: writer.close())

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer, error_message("request line too long")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                    await self._handle_message(message, writer)
                except ReproError as exc:
                    await self._send(writer, error_message(str(exc)))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    async def _handle_message(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = message.get("op")
        if op not in KNOWN_OPS:
            raise ServeError(
                f"unknown op {op!r}; known ops: {', '.join(KNOWN_OPS)}"
            )
        if op == "submit":
            await self._op_submit(message, writer)
        elif op == "status":
            await self._op_status(message, writer)
        elif op == "result":
            await self._op_result(message, writer)
        elif op == "stats":
            await self._op_stats(writer)
        else:  # shutdown
            await self._send(writer, {"ok": True, "op": "shutdown"})
            self._shutdown.set()

    def _specs_from_message(self, message: Dict[str, Any]) -> List[StudySpec]:
        raw = message.get("specs")
        if not isinstance(raw, list):
            raise ServeError("submit needs 'specs': [study spec, ...]")
        specs = [StudySpec.from_dict(entry) for entry in raw]
        if not specs:
            raise ServeError("submit carried no specs")
        # A served study is the store's summary record, which keeps no
        # per-slot counters to reduce, and a pipeline spec hashes like its
        # plain twin, so the daemon would answer it with the twin's result.
        for spec in specs:
            if spec.pipeline is not None:
                raise ServeError(
                    f"spec {spec.display_label!r} carries a metric pipeline; "
                    "the sweep service does not serve pipelines — run it "
                    "locally through StudyPlan.run"
                )
        return specs

    async def _op_submit(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            raise ServeError(
                "server is draining: finishing its backlog and refusing new "
                "submissions; retry against a restarted server"
            )
        specs = self._specs_from_message(message)
        try:
            priority = int(message.get("priority", 0))
        except (TypeError, ValueError, OverflowError):
            raise ServeError(
                f"submit 'priority' must be an integer, got {message['priority']!r}"
            ) from None
        wait = _wait_flag(message, default=False)
        jobs = [self._submit_spec(spec, priority) for spec in specs]
        await self._send(
            writer,
            {
                "ok": True,
                "op": "submit",
                "version": PROTOCOL_VERSION,
                "jobs": [job.status_row() for job in jobs],
            },
        )
        if wait:
            await self._stream_results([job.digest for job in jobs], writer)

    async def _op_status(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        digests = message.get("hashes")
        if digests is None:
            rows = [job.status_row() for job in self._jobs.values()]
        elif not isinstance(digests, list):
            raise ServeError("status 'hashes' must be a list: [spec_hash, ...]")
        else:
            rows = []
            for digest in digests:
                job = self._jobs.get(str(digest))
                if job is None:
                    rows.append({"hash": str(digest), "status": "unknown"})
                else:
                    rows.append(job.status_row())
        await self._send(writer, {"ok": True, "op": "status", "jobs": rows})

    async def _op_result(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        digests = message.get("hashes")
        if not isinstance(digests, list):
            raise ServeError("result needs 'hashes': [spec_hash, ...]")
        wait = _wait_flag(message, default=True)
        await self._send(
            writer, {"ok": True, "op": "result", "count": len(digests)}
        )
        if wait:
            await self._stream_results([str(d) for d in digests], writer)
        else:
            for digest in digests:
                job = self._jobs.get(str(digest))
                if job is None:
                    event = {
                        "event": "result",
                        "hash": str(digest),
                        "status": "unknown",
                    }
                else:
                    event = self._result_event(job)
                await self._send(writer, event)
            await self._send(writer, {"event": "end"})

    async def _op_stats(self, writer: asyncio.StreamWriter) -> None:
        by_state = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            by_state[job.status] = by_state.get(job.status, 0) + 1
        payload: Dict[str, Any] = {
            "ok": True,
            "op": "stats",
            "version": PROTOCOL_VERSION,
            "workers": self._workers,
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": self._queue.qsize(),
            "draining": self._draining,
            "journaled": self._journal is not None,
            "jobs": by_state,
            **self._stats.to_dict(),
        }
        if hasattr(self._store, "stats"):
            payload["store"] = self._store.stats()
        await self._send(writer, payload)

    def _result_event(self, job: Job) -> Dict[str, Any]:
        event = {"event": "result", **job.status_row()}
        if job.payload is not None:
            event["study"] = job.payload
        return event

    async def _stream_results(
        self, digests: List[str], writer: asyncio.StreamWriter
    ) -> None:
        """One ``result`` event per job, in completion order, then ``end``."""
        waiters: Dict[asyncio.Task, Job] = {}
        for digest in dict.fromkeys(digests):  # de-dup, keep order
            job = self._jobs.get(digest)
            if job is None:
                await self._send(
                    writer,
                    {"event": "result", "hash": digest, "status": "unknown"},
                )
                continue
            waiters[asyncio.create_task(job.event.wait())] = job
        remaining = set(waiters)
        while remaining:
            done, remaining = await asyncio.wait(
                remaining, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                await self._send(writer, self._result_event(waiters[task]))
        await self._send(writer, {"event": "end"})


def _wait_flag(message: Dict[str, Any], default: bool) -> bool:
    # Truthiness would read "no" and "false" as True and stream results.
    wait = message.get("wait", default)
    if not isinstance(wait, bool):
        raise ServeError(
            f"{message['op']} 'wait' must be a JSON boolean, got {wait!r}"
        )
    return wait


async def _cancel_all(tasks: List[asyncio.Task]) -> None:
    """Cancel ``tasks`` and wait until each has finished."""
    for task in tasks:
        task.cancel()
    for task in tasks:
        with contextlib.suppress(asyncio.CancelledError):
            await task


class BackgroundServer:
    """A :class:`SweepServer` on its own event loop in a daemon thread.

    It opens ``store_root`` as its ``ring.json`` describes, or creates the
    default 2-shard store there.  Context-manager harness for tests,
    benchmarks and library embedding::

        with BackgroundServer(store_root, workers=2) as server:
            client = ServeClient(*server.address)
            ...
    """

    def __init__(
        self,
        store_root: Union[str, Path],
        workers: int = 2,
        store_budget: Optional[int] = None,
        host: str = "127.0.0.1",
        journal: Optional[Union[str, Path]] = None,
        deadline: Optional[float] = None,
        requeues: int = 1,
        port: int = 0,
    ) -> None:
        self._store_root = store_root
        self._workers = workers
        self._budget = store_budget
        self._host = host
        self._journal = journal
        self._deadline = deadline
        self._requeues = requeues
        self._port = int(port)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[SweepServer] = None
        self._address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise ServeError("background server is not running")
        return self._address

    @property
    def server(self) -> SweepServer:
        if self._server is None:
            raise ServeError("background server is not running")
        return self._server

    def __enter__(self) -> "BackgroundServer":
        started = threading.Event()

        def runner() -> None:
            # asyncio.run finishes what the stop left in flight (a connection
            # accepted just before the listener closed) before it closes the
            # loop.
            try:
                asyncio.run(self._main(started))
            except BaseException as exc:  # noqa: BLE001 — surfaced to caller
                self._startup_error = exc
            finally:
                started.set()

        self._thread = threading.Thread(
            target=runner, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise ServeError(
                f"background server failed to start: {self._startup_error}"
            ) from self._startup_error
        if self._address is None:
            raise ServeError("background server did not come up in time")
        return self

    async def _main(self, started: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = SweepServer(
            ShardedStudyStore(self._store_root),
            host=self._host,
            port=self._port,
            workers=self._workers,
            store_budget=self._budget,
            journal=self._journal,
            deadline=self._deadline,
            requeues=self._requeues,
        )
        await self._server.start()
        self._address = self._server.address
        started.set()
        await self._server.serve_until_shutdown()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self._server is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._address = None
