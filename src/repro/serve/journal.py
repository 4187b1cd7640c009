"""Crash-safe server journal: a write-ahead log of job lifecycle.

The :class:`~repro.serve.server.FarmServer` appends one JSON line to
``<spool>/journal.jsonl`` for every admission (``"t": "submit"``, the
full wire-form job spec) and every state transition (``"t": "state"``).
Records are flushed per append, so a server killed mid-batch (SIGKILL,
OOM, power) leaves a journal whose fold reconstructs every job it ever
accepted and the last state each one durably reached.  An ``ok`` record
carries the job's ``payload``: the journal is the one durable copy of a
served result (the shared store is a cross-run cache, not a second
copy).

``repro serve --recover`` replays the journal on restart:

* a job whose last record is ``ok`` with a payload, ``failed`` or
  ``cancelled`` is restored as-is, so completed work is never re-run;
* every other job is re-enqueued through the store-hit fast path:
  ``queued``/``running``/``preempted`` ones, a job whose ``ok`` line
  was torn mid-write (replay skips it, so the job reads ``running``),
  and an ``ok`` record without a payload (schema 1).  A job that was
  ``running`` at the crash is additionally marked *orphaned* (its
  worker pid is recorded on the job stream, but never signalled —
  after a host crash the pid may belong to anyone);
* a relaunched lockstep job resumes from its PR 3 checkpoint when one
  exists in ``<spool>/ckpt`` (the checkpoint is keyed by job identity,
  so this needs no extra journal state), and restarts within the retry
  budget otherwise.

The format is append-only and torn-tolerant: a line cut mid-write by
the crash is skipped during replay, exactly like the PR 6 instrument
streams, and a reopened journal starts its first record on a fresh
line.

Schema history: 1, states only (an ``ok`` payload lived in
``<spool>/results/<id>.json``); 2, the ``ok`` record carries
``payload``.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Iterator

__all__ = ["JOURNAL_SCHEMA", "ServeJournal", "replay_journal"]

#: bump on incompatible journal record changes (history in the module
#: docstring)
JOURNAL_SCHEMA = 2

#: states a replayed job never leaves (mirrors queue.TERMINAL_STATES;
#: re-declared here so the journal stays importable on its own)
_TERMINAL = frozenset({"ok", "failed", "cancelled"})


class ServeJournal:
    """Append-only JSONL writer for one server spool."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists()
        torn = not fresh and _ends_mid_line(self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            self.append({"t": "meta", "schema": JOURNAL_SCHEMA})
        elif torn:
            # close the line a crash cut, or the first record appended
            # now would be glued to it and skipped with it on replay
            self._fh.write("\n")

    def append(self, doc: dict[str, Any]) -> None:
        """Write one record and flush it to the OS (write-ahead: call
        before acting on the transition, so a crash between the two
        replays the action rather than forgetting it)."""
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()

    def submit(self, rec, wire: dict[str, Any],
               instrument: dict[str, Any] | None = None) -> None:
        self.append({"t": "submit", "id": rec.id, "seq": rec.seq,
                     "tenant": rec.tenant, "priority": rec.priority,
                     "job": wire, "instrument": instrument})

    def state(self, rec, **extra: Any) -> None:
        self.append({"t": "state", "id": rec.id, "state": rec.state,
                     "attempts": rec.attempts, "host": rec.host,
                     "error": rec.error, "resumed": rec.resumed,
                     "from_cache": rec.from_cache, **extra})

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass


def _ends_mid_line(path: pathlib.Path) -> bool:
    with open(path, "rb") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return False
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) != b"\n"


def _read_records(path: pathlib.Path) -> Iterator[dict[str, Any]]:
    """Yield parseable journal records; a torn tail line is skipped."""
    try:
        raw = path.read_bytes()
    except OSError:
        return
    for line in raw.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue  # torn write at the crash point
        if isinstance(doc, dict):
            yield doc


def replay_journal(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Fold a journal into one summary dict per job, admission order.

    Each summary carries the submit-time fields (``id``, ``seq``,
    ``tenant``, ``priority``, ``job`` wire spec, ``instrument``) plus
    the last durably recorded ``state``/``attempts``/``host``/``error``
    /``pid``/``payload`` (``None`` until an ``ok`` record carries one),
    and ``terminal`` (bool) / ``orphaned`` (bool: was running when the
    journal stopped).
    """
    jobs: dict[str, dict[str, Any]] = {}
    for doc in _read_records(pathlib.Path(path)):
        kind = doc.get("t")
        if kind == "submit" and doc.get("id"):
            jobs[doc["id"]] = {
                "id": doc["id"], "seq": int(doc.get("seq", 0)),
                "tenant": doc.get("tenant", "default"),
                "priority": int(doc.get("priority", 0)),
                "job": doc.get("job"), "instrument": doc.get("instrument"),
                "state": "queued", "attempts": 0, "host": None,
                "error": None, "pid": None, "payload": None,
                "resumed": False, "from_cache": False,
            }
        elif kind == "state":
            summary = jobs.get(doc.get("id"))
            if summary is None:
                continue  # a state line whose submit was torn away
            for key in ("state", "attempts", "host", "error", "resumed",
                        "from_cache", "pid", "payload"):
                if key in doc:
                    summary[key] = doc[key]
    out = sorted(jobs.values(), key=lambda j: j["seq"])
    for summary in out:
        summary["terminal"] = summary["state"] in _TERMINAL
        summary["orphaned"] = summary["state"] == "running"
    return out
