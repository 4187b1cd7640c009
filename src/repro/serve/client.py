"""Thin synchronous client for a running ``repro serve`` instance.

One socket connection per request (connect, one JSON line out, one JSON
line back, close) — the deliberately stateless shape that lets the CLI
verbs (``repro submit/status/cancel/resume``) be one-shot processes and
keeps the server free of per-client session state.  Waiting for a job
is not polling: :meth:`ServeClient.wait` sends ``status`` requests the
server holds until the job gets where the caller wants it (``wait_s`` /
``until``, see :mod:`repro.serve.protocol`), one or two per job however
long it runs.  Streaming never crosses the socket:
:meth:`ServeClient.tail` asks the server where the job's spool stream
lives and follows the file directly with
:func:`repro.instrument.tail_stream`.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Iterator

from ..farm.job import Job
from .protocol import ServeError, job_to_wire
from .queue import TERMINAL_STATES

__all__ = ["ServeClient"]


class ServeClient:
    """Talk to a :class:`~repro.serve.server.FarmServer`.

    *endpoint* is the server's Unix-socket path (the default
    ``<spool>/serve.sock``).
    """

    def __init__(self, endpoint: str, timeout_s: float = 30.0,
                 connect_retries: int = 5,
                 retry_backoff_s: float = 0.05) -> None:
        self.endpoint = str(endpoint)
        self.timeout_s = float(timeout_s)
        self.connect_retries = max(0, int(connect_retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))

    # -- transport -----------------------------------------------------------

    def _request(self, doc: dict[str, Any]) -> dict[str, Any]:
        """One request/response exchange, with a short bounded retry.

        Two transient cases are retried with exponential backoff before
        giving up: the socket not accepting/existing yet (``repro
        submit`` racing ``repro serve`` startup — ECONNREFUSED/ENOENT)
        and a connection the server closed without a response — seen as
        an empty read or ECONNRESET/EPIPE (it never read the request,
        so re-sending cannot double-submit).
        """
        last_error = "request failed"
        for attempt in range(self.connect_retries + 1):
            if attempt:
                time.sleep(min(self.retry_backoff_s * 2 ** (attempt - 1),
                               2.0))
            try:
                raw = self._exchange(doc)
            except (ConnectionRefusedError, ConnectionResetError,
                    BrokenPipeError, FileNotFoundError) as exc:
                last_error = f"cannot reach server at {self.endpoint}: {exc}"
                continue
            except OSError as exc:
                raise ServeError(
                    f"cannot reach server at {self.endpoint}: {exc}"
                ) from None
            if not raw:
                last_error = f"empty response from {self.endpoint}"
                continue
            resp = json.loads(raw.decode("utf-8"))
            if not resp.get("ok"):
                raise ServeError(resp.get("error", "request failed"))
            return resp
        raise ServeError(last_error)

    def _exchange(self, doc: dict[str, Any]) -> bytes:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        try:
            sock.connect(self.endpoint)
            sock.sendall(json.dumps(doc).encode("utf-8") + b"\n")
            chunks: list[bytes] = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        finally:
            sock.close()
        return b"".join(chunks)

    # -- ops -----------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self._request({"op": "ping"})

    def submit(self, job: Job | dict[str, Any], tenant: str = "default",
               priority: int = 0,
               instrument: dict[str, Any] | None = None) -> dict[str, Any]:
        """Queue one job; returns its status doc (``id``, ``state``...).

        *job* is a :class:`Job` or its wire dict.  A shared-store hit
        completes immediately (``state == "ok"``, ``from_cache`` set).
        """
        wire = job_to_wire(job) if isinstance(job, Job) else dict(job)
        req: dict[str, Any] = {"op": "submit", "job": wire,
                               "tenant": tenant, "priority": int(priority)}
        if instrument is not None:
            req["instrument"] = (instrument.to_dict()
                                 if hasattr(instrument, "to_dict")
                                 else instrument)
        return self._request(req)

    def status(self, job_id: str | None = None,
               payload: bool = False) -> dict[str, Any]:
        """One job's status, or the whole-server view when *job_id* is
        None (queues, deploy backend, store counters, every job)."""
        req: dict[str, Any] = {"op": "status"}
        if job_id is not None:
            req["id"] = job_id
            if payload:
                req["payload"] = True
        return self._request(req)

    def cancel(self, job_id: str, preempt: bool = False) -> dict[str, Any]:
        """Cancel a job — or, with ``preempt=True``, checkpoint-stop a
        running one so it can :meth:`resume` later."""
        return self._request({"op": "cancel", "id": job_id,
                              "preempt": bool(preempt)})

    def resume(self, job_id: str) -> dict[str, Any]:
        """Re-queue a preempted job; it restarts from its checkpoint."""
        return self._request({"op": "resume", "id": job_id})

    def shutdown(self, drain: bool = True) -> dict[str, Any]:
        """Stop the server: ``drain=True`` finishes queued + running
        jobs first; ``drain=False`` preempts running jobs and exits."""
        return self._request({"op": "shutdown", "drain": bool(drain)})

    # -- conveniences --------------------------------------------------------

    def wait(self, job_id: str, timeout_s: float = 120.0,
             poll_s: float = 0.05,
             until: frozenset[str] = TERMINAL_STATES) -> dict[str, Any]:
        """Block until the job reaches a state in *until*; returns the
        final status doc (with payload when the job succeeded).

        Each round is one ``status`` request the server holds until the
        job gets there (``wait_s``/``until``, see
        :mod:`repro.serve.protocol`), for at most half this client's
        socket timeout.  *poll_s* only paces rounds against a server
        that answered early without such a state: one that predates the
        fields (it ignores them) or one that is shutting down.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            asked = time.monotonic()
            wait_s = max(0.0, min(deadline - asked, self.timeout_s / 2))
            doc = self._request({"op": "status", "id": job_id,
                                 "payload": True, "wait_s": wait_s,
                                 "until": sorted(until)})
            if doc["state"] in until:
                return doc
            now = time.monotonic()
            if now > deadline:
                raise ServeError(
                    f"job {job_id} still {doc['state']} after {timeout_s:g}s")
            if now - asked < wait_s:
                time.sleep(poll_s)

    def tail(self, job_id: str, follow: bool = True,
             timeout_s: float = 30.0) -> Iterator[dict[str, Any]]:
        """Yield the job's progress-stream records (live when *follow*).

        Records come straight off the spool file in the PR 6 stream
        format; iteration ends at the ``seal`` record a terminal state
        writes.
        """
        from ..instrument import tail_stream
        doc = self.status(job_id)
        stream = doc.get("stream")
        if not stream:
            raise ServeError(f"job {job_id} has no stream")
        return tail_stream(stream, follow=follow, timeout_s=timeout_s)
