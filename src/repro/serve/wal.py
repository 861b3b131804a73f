"""Write-ahead journal of the sweep service.

:class:`ServeJournal` is the durable, accountable log behind
``repro serve --journal``: an append-only JSONL file recording every job
transition (``accepted`` / ``running`` / ``requeued`` / ``done`` /
``failed``) keyed by ``spec_hash()``.  Every *accepted* record carries the
full spec JSON, so the journal alone is enough to reconstruct the backlog
after a crash — :meth:`replay` returns the latest status per job plus the
``accepted`` record (spec and priority) of every job that has one, and the
server re-queues whatever is not terminal at its accepted priority
(answering already-completed jobs from the study store).

The file is torn-line-tolerant JSONL: a process killed mid-append leaves
a torn trailing line that the next read simply drops, and the next append
starts on a fresh line instead of welding onto the tear.  The ``wal-torn``
fault site simulates exactly that tear deterministically for tests and the
chaos CI leg.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

from .. import faults

__all__ = ["JOB_TERMINAL_STATES", "ServeJournal"]

#: Journal statuses that need no recovery action on restart.
JOB_TERMINAL_STATES = ("done", "failed", "cached")


class ServeJournal:
    """Append-only WAL of job transitions, keyed by spec hash.

    Last-record-wins per hash for the *status*; the record that carried
    the *spec* (the ``accepted`` record, with its priority) is remembered
    separately, so a later status-only append never erases the
    information needed to re-queue the job.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)

    def append(self, record: Mapping[str, Any]) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(dict(record), sort_keys=True) + "\n"
        with self._path.open("a+b") as handle:
            # A crashed writer can leave a torn final line with no newline;
            # appending straight after it would weld this record onto the
            # tear and lose both.  Start on a fresh line instead.
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode("utf-8"))

    def records(self) -> List[Dict[str, Any]]:
        """Every parseable record in append order.

        A missing file is an empty journal, blank lines are skipped, and an
        unparseable line — a torn trailing append from a crashed writer —
        is dropped rather than poisoning the load.
        """
        records: List[Dict[str, Any]] = []
        try:
            lines = self._path.read_text().splitlines()
        except OSError:
            return records
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line from a crashed writer
            if isinstance(record, dict):
                records.append(record)
        return records

    def record(
        self,
        digest: str,
        status: str,
        spec: Mapping[str, Any] | None = None,
        **extra: Any,
    ) -> None:
        """Append one transition; ``accepted`` records should carry ``spec``."""
        payload: Dict[str, Any] = {"hash": str(digest), "status": str(status)}
        if spec is not None:
            payload["spec"] = dict(spec)
        payload.update(extra)
        self.append(payload)
        if faults.active_plan().fires("wal-torn", hash=digest, status=status):
            self._tear_trailing_line()

    def replay(self) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Dict[str, Any]]]:
        """(latest record per hash, latest spec-carrying record per hash).

        The spec-carrying record is the ``accepted`` record: it holds the
        spec and the priority, which the ``running`` and ``requeued``
        records that follow it do not.  A hash whose latest status is not
        terminal and whose spec was journaled is a job the restarted server
        must re-queue; a hash with no surviving spec record (torn away
        mid-accept) never reached an acknowledged state, so dropping it is
        correct — the client never heard ``accepted`` and will resubmit.
        """
        state: Dict[str, Dict[str, Any]] = {}
        accepted: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            digest = record.get("hash")
            if not digest:
                continue
            digest = str(digest)
            state[digest] = record
            if isinstance(record.get("spec"), dict):
                accepted[digest] = record
        return state, accepted

    def unfinished(self) -> Dict[str, Dict[str, Any]]:
        """The ``accepted`` records of accepted-but-unfinished jobs.

        Returns ``{hash: accepted record}`` (with its ``spec`` and
        ``priority``) for every job the journal accepted that never reached
        a terminal state.
        """
        state, accepted = self.replay()
        return {
            digest: accepted[digest]
            for digest, record in state.items()
            if record.get("status") not in JOB_TERMINAL_STATES
            and digest in accepted
        }

    def _tear_trailing_line(self) -> None:
        """Injected ``wal-torn`` fault: truncate the file mid-final-line,
        exactly what a daemon killed between ``write`` and the newline
        reaching disk leaves behind.  Only the final record is damaged —
        a real torn append never reaches back into earlier lines."""
        try:
            data = self._path.read_bytes()
        except OSError:
            return
        if len(data) < 2:
            return
        body = data[:-1] if data.endswith(b"\n") else data
        start = body.rfind(b"\n") + 1  # first byte of the final record
        cut = max(start + 1, start + (len(body) - start) // 2)
        with self._path.open("rb+") as handle:
            handle.truncate(cut)
