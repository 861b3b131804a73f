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
  tasks, each running one job at a time in a thread of a bounded executor.
  With ``fuse=True`` (the default) a dispatcher additionally drains queued
  jobs sharing its lead job's :func:`~repro.sim.backends.fused.fusion_key`
  and executes the whole group as one fused lockstep run — every job keeps
  its own status row, health fields, dedupe entry and ``executed`` /
  ``failed`` accounting, and a fused failure degrades each member to the
  ordinary per-job path.
* A job executes through ``StudySpec.run(store=...)`` — the exact same
  backend ladder, supervised worker pool (:class:`~repro.sim.runner.
  SupervisorPolicy` retries/backoff/degradation) and content-addressed
  store as a local run, so served results are seed-for-seed identical to
  ``StudyPlan.run`` and :class:`~repro.sim.health.RunHealth` events
  (crashes, retries, demotions) surface in job status as
  ``health_retries`` / ``health_failures`` / ``health_demotions``.
* With a ``store_budget``, the store is brought back under its byte budget
  after every executed job (LRU-by-atime eviction; entries written during
  the current server session are never evicted).

Crash safety (``journal=...``): every job transition is appended to a
:class:`~repro.serve.wal.ServeJournal` write-ahead log *before* the client
hears about it.  A server restarted over the same journal re-queues every
accepted-but-unfinished job (:meth:`SweepServer.start` replays the WAL) and
answers already-completed ones straight from the store, so a SIGKILL loses
no acknowledged work.  Jobs additionally carry an execution ``deadline``:
an overrun is re-queued up to ``requeues`` times and then failed, and a
watchdog task replaces dispatchers that crash or hang outright (the
execution thread is a per-job daemon thread, so a hung job leaks a thread
instead of wedging a pool slot).  :meth:`SweepServer.drain` is the graceful
counterpart to shutdown: refuse new submissions, finish and journal the
backlog, then stop.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .. import faults
from ..errors import ReproError, ServeError
from ..spec.store import result_record
from ..spec.study import StudySpec
from ..spec.sweep import Sweep
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
    """Wire form of a study: the store's summary records + provenance."""
    health = getattr(study, "health", None)
    return {
        "label": study.label,
        "effective_workers": int(getattr(study, "effective_workers", 1)),
        "from_cache": bool(getattr(study, "from_cache", False)),
        "results": [result_record(result) for result in study.results],
        "health": health.to_dict() if health is not None else {},
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
    watchdog_restarts: int = 0

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
            "watchdog_restarts": self.watchdog_restarts,
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
        fuse: bool = True,
        journal: Optional[Union[str, Path, ServeJournal]] = None,
        deadline: Optional[float] = None,
        requeues: int = 1,
        watchdog_interval: float = 0.25,
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
        self._fuse = bool(fuse)
        if isinstance(journal, (str, Path)):
            journal = ServeJournal(journal)
        self._journal = journal
        self._deadline = None if deadline is None else float(deadline)
        self._requeues = int(requeues)
        self._watchdog_interval = float(watchdog_interval)
        self._jobs: Dict[str, Job] = {}
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()
        self._stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: List[asyncio.Task] = []
        self._watchdog: Optional[asyncio.Task] = None
        # Per-dispatcher in-flight work, keyed by the dispatcher *task* (not
        # its index — replacement tasks must never inherit a stale entry):
        # task -> (monotonic start time, job group being executed).
        self._busy: Dict[asyncio.Task, Tuple[float, List[Job]]] = {}
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
        self._watchdog = asyncio.create_task(self._watchdog_loop())

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
        # The watchdog dies first, or it would "recover" the dispatchers we
        # are about to cancel.
        tasks = list(self._dispatchers)
        if self._watchdog is not None:
            tasks.insert(0, self._watchdog)
        await _cancel_all(tasks)

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
        for entry in self._journal.unfinished().values():
            try:
                spec = StudySpec.from_dict(entry["spec"])
            except ReproError:
                continue  # an unparseable journaled spec cannot be re-run
            record = entry.get("record", {})
            try:
                priority = int(record.get("priority", 0))
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

        One thread per job rather than a bounded pool: a job that hangs
        forever leaks one daemon thread instead of permanently occupying a
        pool slot, so dispatch capacity survives any number of hung jobs.
        The resolver checks ``future.cancelled()`` because a deadline
        overrun (``asyncio.wait_for``) cancels the future while the thread
        is still running — its late result must be discarded, not crash.
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
        """Deadline/hang recovery: re-queue up to the cap, then fail.

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
        while True:
            _priority, _seq, digest = await self._queue.get()
            job = self._jobs.get(digest)
            if job is None or job.status != "queued":
                continue  # stale queue entry (e.g. resubmitted meanwhile)
            group = [job]
            if self._fuse:
                group.extend(self._drain_fusable(job))
            for member in group:
                member.status = "running"
                member.attempts += 1
                self._journal_record(member.digest, "running")
            task = asyncio.current_task()
            assert task is not None
            self._busy[task] = (time.monotonic(), group)
            try:
                if faults.active_plan().fires(
                    "dispatcher-hang", hash=digest, worker=worker
                ):
                    # Injected wedge: this dispatcher stops making progress
                    # with its group marked running; only the watchdog can
                    # recover the jobs.
                    await asyncio.sleep(3600.0)
                start = time.perf_counter()
                if len(group) == 1:
                    await self._dispatch_single(job, start)
                else:
                    await self._dispatch_group(group, start)
            finally:
                self._busy.pop(task, None)

    async def _dispatch_single(self, job: Job, start: float) -> None:
        try:
            payload, health = await self._await_deadline(
                self._run_in_thread(self._execute, job.spec, job.attempts - 1)
            )
        except asyncio.TimeoutError:
            job.run_seconds = time.perf_counter() - start
            self._requeue_or_fail(
                job, f"deadline: exceeded {self._deadline:g}s"
            )
            return
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = "failed"
            self._stats.failed += 1
            self._journal_record(job.digest, "failed", error=job.error)
        else:
            job.payload = payload
            job.health = health
            job.status = "done"
            self._stats.executed += 1
            self._journal_record(job.digest, "done")
        job.run_seconds = time.perf_counter() - start
        job.event.set()

    async def _dispatch_group(self, group: List[Job], start: float) -> None:
        try:
            outcomes = await self._await_deadline(
                self._run_in_thread(
                    self._execute_group,
                    [(member.spec, member.attempts - 1) for member in group],
                )
            )
        except asyncio.TimeoutError:
            elapsed = time.perf_counter() - start
            for member in group:
                member.run_seconds = elapsed
                self._requeue_or_fail(
                    member, f"deadline: exceeded {self._deadline:g}s"
                )
            return
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

    # ------------------------------------------------------------ watchdog

    async def _watchdog_loop(self) -> None:
        """Replace dispatchers that die or stop making progress.

        A *crashed* dispatcher (its task finished — only possible through a
        bug or external cancellation) is replaced outright.  A *hung* one —
        busy on the same job group past the job deadline plus two watchdog
        intervals — is cancelled, its jobs re-queued through the ordinary
        requeue-or-fail ladder, and a fresh dispatcher started in its slot.
        Hang detection needs a ``deadline``; without one only crash
        recovery is active (an unbounded job is indistinguishable from a
        slow one).
        """
        interval = self._watchdog_interval
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for index, task in enumerate(self._dispatchers):
                if task.done():
                    self._restart_dispatcher(index, task, "crashed")
                    continue
                if self._deadline is None:
                    continue
                entry = self._busy.get(task)
                if entry is None:
                    continue
                started, _group = entry
                if now - started > self._deadline + 2 * interval:
                    task.cancel()
                    self._restart_dispatcher(index, task, "hung")

    def _restart_dispatcher(
        self, index: int, task: asyncio.Task, why: str
    ) -> None:
        if not task.cancelled() and task.done():
            task.exception()  # retrieve, or the loop logs it as unhandled
        _started, group = self._busy.pop(task, (0.0, []))
        for member in group:
            if member.status == "running":
                self._requeue_or_fail(member, f"dispatcher {why}")
        self._stats.watchdog_restarts += 1
        self._dispatchers[index] = asyncio.create_task(
            self._dispatch_loop(index)
        )

    def _drain_fusable(self, lead: Job, cap: int = 16) -> List[Job]:
        """Queued jobs fusable with ``lead``, pulled without blocking.

        Runs synchronously on the event loop (no awaits), so the drain is
        atomic with respect to the other dispatcher tasks.  Entries whose
        jobs cannot fuse with the lead are re-queued with their original
        ordering tuple; stale entries are dropped exactly as the dispatch
        loop would drop them.  The group is bounded by ``cap`` jobs and the
        fused block's trial budget.
        """
        from ..sim.backends.fused import fusion_budget, fusion_key

        key = fusion_key(lead.spec)
        if key is None:
            return []
        budget = fusion_budget(lead.spec.horizon)
        trials = lead.spec.trials
        if trials > budget:
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
            if (
                candidate.spec.trials + trials <= budget
                and fusion_key(candidate.spec) == key
            ):
                group.append(candidate)
                trials += candidate.spec.trials
            else:
                requeue.append(entry)
        for entry in requeue:
            self._queue.put_nowait(entry)
        return group

    def _execute(
        self, spec: StudySpec, attempt: int
    ) -> Tuple[Dict[str, Any], Dict[str, float]]:
        """Run one job in an executor thread (the dispatcher awaits it)."""
        faults.active_plan().maybe_raise(
            "serve-job", hash=spec.spec_hash(), attempt=attempt
        )
        study = spec.run(store=self._store)
        health = getattr(study, "health", None)
        health_fields = dict(health.summary_fields()) if health is not None else {}
        if self._budget is not None and hasattr(self._store, "evict"):
            report = self._store.evict(self._budget)
            self._stats.evicted += len(report["evicted"])
        return study_payload(study), health_fields

    def _execute_group(
        self, items: Sequence[Tuple[StudySpec, int]]
    ) -> List[Tuple[str, Any, Dict[str, float]]]:
        """Run a fused job group in one executor thread; one outcome per job.

        Every job keeps its own ``serve-job`` fault check, store row and
        failure accounting.  The fused run covers only the jobs that pass
        their fault check and miss the store; when it fails (or declines),
        those jobs degrade one by one to the ordinary per-job execution
        path, so a fused failure can never corrupt or lose a sibling job.
        Outcomes are ``("done", payload, health)`` or
        ``("failed", error_text, {})``, aligned with ``items``.
        """
        from ..sim.backends.fused import run_fused_group

        outcomes: List[Optional[Tuple[str, Any, Dict[str, float]]]] = [
            None
        ] * len(items)
        misses: List[int] = []
        for pos, (spec, attempt) in enumerate(items):
            try:
                faults.active_plan().maybe_raise(
                    "serve-job", hash=spec.spec_hash(), attempt=attempt
                )
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
                outcomes[pos] = ("failed", f"{type(exc).__name__}: {exc}", {})
                continue
            cached = self._store_get(spec)
            if cached is not None:
                health = getattr(cached, "health", None)
                fields = (
                    dict(health.summary_fields()) if health is not None else {}
                )
                outcomes[pos] = ("done", study_payload(cached), fields)
                continue
            misses.append(pos)

        studies = None
        if len(misses) >= 2:
            try:
                studies = run_fused_group([items[pos][0] for pos in misses])
            except Exception:  # noqa: BLE001 — degrade to per-job dispatch
                studies = None
        for offset, pos in enumerate(misses):
            spec = items[pos][0]
            try:
                if studies is not None:
                    study = studies[offset]
                    if self._store is not None:
                        self._store.put(spec, study)
                else:
                    study = spec.run(store=self._store)
                health = getattr(study, "health", None)
                fields = (
                    dict(health.summary_fields()) if health is not None else {}
                )
                outcomes[pos] = ("done", study_payload(study), fields)
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
                outcomes[pos] = ("failed", f"{type(exc).__name__}: {exc}", {})
        if self._budget is not None and hasattr(self._store, "evict"):
            report = self._store.evict(self._budget)
            self._stats.evicted += len(report["evicted"])
        return [outcome for outcome in outcomes if outcome is not None]

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
        if "spec" in message:
            raw: Iterable[Any] = [message["spec"]]
        elif "specs" in message:
            raw = message["specs"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise ServeError("'specs' must be a list of study specs")
        elif "sweep" in message:
            sweep = message["sweep"]
            if not isinstance(sweep, dict):
                raise ServeError("'sweep' must be {'base': ..., 'axes': ...}")
            base = StudySpec.from_dict(sweep.get("base", {}))
            return Sweep(base, sweep.get("axes", {})).expand()
        else:
            raise ServeError("submit needs 'spec', 'specs' or 'sweep'")
        specs = [StudySpec.from_dict(entry) for entry in raw]
        if not specs:
            raise ServeError("submit carried no specs")
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
        priority = int(message.get("priority", 0))
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
        if message.get("wait", False):
            await self._stream_results([job.digest for job in jobs], writer)

    async def _op_status(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        digests = message.get("hashes")
        if digests is None:
            rows = [job.status_row() for job in self._jobs.values()]
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
        await self._send(
            writer, {"ok": True, "op": "result", "count": len(digests)}
        )
        if message.get("wait", True):
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


async def _cancel_all(tasks: List[asyncio.Task]) -> None:
    """Cancel ``tasks`` and wait until each has finished."""
    for task in tasks:
        task.cancel()
    for task in tasks:
        with contextlib.suppress(asyncio.CancelledError):
            await task


class BackgroundServer:
    """A :class:`SweepServer` on its own event loop in a daemon thread.

    Context-manager harness for tests, benchmarks and library embedding::

        with BackgroundServer(store_root, shards=2, workers=2) as server:
            client = ServeClient(*server.address)
            ...
    """

    def __init__(
        self,
        store_root: Union[str, Path],
        shards: int = 2,
        workers: int = 2,
        virtual_nodes: Optional[int] = None,
        store_budget: Optional[int] = None,
        host: str = "127.0.0.1",
        fuse: bool = True,
        journal: Optional[Union[str, Path]] = None,
        deadline: Optional[float] = None,
        requeues: int = 1,
        port: int = 0,
        watchdog_interval: float = 0.25,
    ) -> None:
        self._store_root = store_root
        self._shards = shards
        self._workers = workers
        self._virtual_nodes = virtual_nodes
        self._budget = store_budget
        self._host = host
        self._fuse = fuse
        self._journal = journal
        self._deadline = deadline
        self._requeues = requeues
        self._port = int(port)
        self._watchdog_interval = float(watchdog_interval)
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
        store = ShardedStudyStore(
            self._store_root,
            shards=self._shards,
            virtual_nodes=self._virtual_nodes,
        )
        self._server = SweepServer(
            store,
            host=self._host,
            port=self._port,
            workers=self._workers,
            store_budget=self._budget,
            fuse=self._fuse,
            journal=self._journal,
            deadline=self._deadline,
            requeues=self._requeues,
            watchdog_interval=self._watchdog_interval,
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
