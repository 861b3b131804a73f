"""Sweep service: an async serving layer over the spec/sweep stack.

The local workflow — :class:`~repro.spec.StudyPlan` executing
:class:`~repro.spec.StudySpec` points against a single-directory
:class:`~repro.spec.StudyStore` — scales to one process.  This package
promotes it into a small serving subsystem, four layers deep:

* **Protocol** (:mod:`repro.serve.protocol`) — a newline-delimited JSON
  request/response protocol over TCP.  Requests: ``submit`` (a list of
  specs), ``status``, ``result`` (blocking, with per-job streaming),
  ``stats`` and ``shutdown``.  Stdlib only.
* **Server** (:mod:`repro.serve.server`) — :class:`SweepServer`, an
  ``asyncio`` daemon (``repro serve``) with an async priority queue and a
  bounded executor pool.  Identical in-flight specs are hash-deduped: N
  submitters of the same spec attach to one execution and all receive the
  result; a spec already in the store is answered instantly without
  touching the queue.  Each claimed job group runs as one
  :class:`~repro.spec.StudyPlan` against the store, the same code as a
  local sweep — results are seed-for-seed identical, and
  :class:`~repro.sim.health.RunHealth` events (retries, crashes,
  demotions) surface in job status.
* **Sharded store** (:mod:`repro.serve.sharded`) —
  :class:`ShardedStudyStore` implements the :class:`~repro.spec.StudyStore`
  surface but routes each ``spec_hash()`` to one of K shard directories via
  a consistent-hash ring (:class:`ConsistentHashRing`) whose topology is
  fixed when the store is created, with an LRU-by-atime eviction policy
  under a byte budget and ``repro store stats|evict|scrub`` maintenance
  commands.
* **Client** (:mod:`repro.serve.client`) — :class:`ServeClient`, the
  synchronous library client behind ``repro sweep --server host:port``
  and ``repro client``: per-request socket timeouts and
  capped-backoff retries by default, so a dead or restarting server can
  never hang a sweep (idempotent reattach by ``spec_hash``).
* **Write-ahead journal** (:mod:`repro.serve.wal`) — :class:`ServeJournal`,
  the durable job-transition log behind ``repro serve --journal``: a
  SIGKILLed server restarted over the same journal re-queues every
  accepted-but-unfinished job and answers completed ones from the store.

Everything is bit-identical to local execution: a served sweep returns
seed-for-seed the same summaries as ``StudyPlan.run`` with a plain
``StudyStore``.
"""

from .client import JobOutcome, ServeClient
from .protocol import PROTOCOL_VERSION, decode_line, encode_message
from .ring import ConsistentHashRing
from .server import BackgroundServer, ServerStats, SweepServer
from .sharded import ShardedStudyStore
from .wal import JOB_TERMINAL_STATES, ServeJournal

__all__ = [
    "BackgroundServer",
    "ConsistentHashRing",
    "JOB_TERMINAL_STATES",
    "JobOutcome",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeJournal",
    "ServerStats",
    "ShardedStudyStore",
    "SweepServer",
    "decode_line",
    "encode_message",
]
