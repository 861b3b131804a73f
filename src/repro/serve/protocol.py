"""Newline-delimited JSON protocol of the sweep service.

One request per line, one-or-more response lines per request, everything a
single JSON object.  The protocol is deliberately transport-trivial —
``telnet``/``nc`` are usable debug clients — and stdlib-only on both ends.

Requests (``{"op": ..., ...}``)::

    {"op": "submit", "specs": [{...StudySpec...}, ...], "priority": 0, "wait": true}
    {"op": "status", "hashes": ["<spec_hash>", ...]}     # omitted = all jobs
    {"op": "result", "hashes": ["<spec_hash>", ...], "wait": true}
    {"op": "stats"}
    {"op": "shutdown"}

Every request is answered first with an acknowledgement object carrying
``"ok"``; a request that blocks (``result``, or ``submit`` with ``wait``)
then streams one ``{"event": "result", ...}`` line per job **in completion
order** and finishes with ``{"event": "end"}``.  Errors are
``{"ok": false, "error": "..."}`` — the connection stays usable.

Jobs are identified by ``StudySpec.spec_hash()``: submitting the same spec
twice *is* the dedupe key, so job ids are stable across clients and
restarts.  That stability is what makes client retries safe: re-sending a
whole ``submit`` after a dropped connection or a server restart reattaches
to (or re-creates) exactly the same jobs.  The ``stats`` reply carries
``"draining": true`` while the server is in its graceful-shutdown window —
new ``submit`` requests are refused with an error then — and
``"journaled"`` reports whether a write-ahead journal backs the job table
(``repro serve --journal``), i.e. whether accepted jobs survive a crash.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..errors import ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "KNOWN_OPS",
    "decode_line",
    "encode_message",
    "error_message",
]

PROTOCOL_VERSION = 1

#: Operations the server understands.
KNOWN_OPS = ("submit", "status", "result", "stats", "shutdown")

#: Cap on a single request line; a submit of a few thousand sweep points
#: stays far below this, while a runaway client cannot balloon server
#: memory.
MAX_LINE_BYTES = 32 * 1024 * 1024


def encode_message(message: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline, UTF-8."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> Dict[str, Any]:
    """Parse one protocol line into a message dict."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServeError(f"invalid protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ServeError(f"protocol messages must be JSON objects: {line!r}")
    return message


def error_message(text: str) -> Dict[str, Any]:
    return {"ok": False, "error": str(text)}
