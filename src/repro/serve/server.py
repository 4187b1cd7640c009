"""Long-lived asyncio farm server: queues in front of the run farm.

``repro serve`` turns the batch-mode run farm into a service, the way a
shared FireSim manager host fronts one FPGA fleet for many users.  One
asyncio event loop owns four things:

* a listening socket speaking the :mod:`repro.serve.protocol` wire
  format (one JSON request line in, one JSON response line out);
* the :class:`~repro.serve.queue.FairScheduler` holding tenant queues,
  priorities, and quotas;
* the :class:`~repro.farm.deploy.DeployManager` host-slot inventory —
  the same pluggable backends batch sweeps use, so a served job lands
  exactly where a ``repro farm`` job would;
* a :class:`~repro.farm.executor.Executor` — the attempt lifecycle
  shared with batch ``repro farm`` — over long-lived forked workers,
  one per deploy slot, each running job watched through its worker's
  pipe with ``loop.add_reader`` (a crashed worker closes the pipe, so
  completion and death arrive through the same readiness event).

Every job gets an append-only progress stream in the spool
(``streams/<id>.jsonl``, the PR 6 tailable JSONL format): lifecycle
records with ``"t": "serve"`` while the job moves through the queue,
the worker's instrument records in a sibling file when instrumentation
was requested, and a final ``seal`` record at any terminal state — so
``repro tail --follow`` on a live job ends exactly when the job does.

Every state change goes through :meth:`FarmServer._set_state` — assign,
journal, wake — so a client waiting for a job does not poll: its
``status`` request carries ``wait_s``/``until`` and the reply is parked
(one future) until the transition it asked about, see
:mod:`repro.serve.protocol`.  A job that finishes goes through
:meth:`FarmServer._complete`, whose ``ok`` journal record carries the
payload: that record is the result's one durable copy, and the shared
store stays a cross-run cache (written on a miss, read at submit).

Preemption reuses :mod:`repro.reliability` checkpoints: lockstep kernel
jobs (``quantum=`` set) checkpoint every ``checkpoint_every`` quanta
into the spool, a preempt is just retiring the worker, and a resume
re-queues the record — the next attempt restores from the checkpoint
and produces a payload bit-identical to an uninterrupted run.

Payload determinism is inherited, not re-implemented: workers run
:func:`repro.farm.job.execute_job_meta`, the single execution path
shared with serial and batch-farm runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import tempfile
import threading
import time
from typing import Any

from .._atomic import atomic_write
from ..farm.deploy import DeployManager, resolve_deploy
from ..farm.executor import Attempt, Executor
from ..farm.retry import RetryPolicy
from ..farm.store import SharedResultStore
from ..instrument.stream import STREAM_SCHEMA, InstrumentStream
from .journal import ServeJournal, replay_journal
from .protocol import PROTOCOL_VERSION, ServeError, job_from_wire
from .queue import TERMINAL_STATES, FairScheduler, JobRecord

__all__ = ["FarmServer", "ServerHandle"]

#: max request line the server will read (a submit with sources fits)
_MAX_LINE = 10 * 1024 * 1024
#: terminal transitions closer together than this share one manifest rewrite
MANIFEST_QUIET_S = 0.25
#: longest a ``status`` reply is held for its ``wait_s`` (the client asks
#: again; a forgotten connection is not parked for ever)
MAX_WAIT_S = 60.0
#: how long a stopping server lets requests in flight (the ``shutdown``
#: itself, replies just released) finish writing before the loop goes
HANDLER_GRACE_S = 1.0


def _wake(fut: asyncio.Future) -> None:
    if not fut.done():
        fut.set_result(None)


class FarmServer:
    """The ``repro serve`` daemon (see module docstring).

    Parameters
    ----------
    spool:
        Server working directory: socket, journal, per-job streams,
        checkpoints, manifest, and (by default) the shared store.
    deploy:
        Run-farm backend — a :class:`DeployManager`, a spec string
        (``"local:4"``, ``"hosts:a=2,b=4"``), or ``None`` for the
        environment default.  Same semantics as batch ``repro farm``.
    store:
        Shared cross-run :class:`SharedResultStore` (or its root path).
        ``None`` opens ``<spool>/store``; pass ``store=False`` to serve
        without one.  A store hit at submit time completes the job
        without touching the scheduler.
    quotas / default_quota:
        Per-tenant concurrent-job quotas (see :class:`FairScheduler`).
    max_retries:
        Automatic re-queues after a crashed/raising/timed-out attempt.
        Host-attributed failures (the worker crashed or timed out on a
        host the job had not failed on) earn *host credits* and do not
        consume this budget — a flaky host can't exhaust an innocent
        job's retries.  The rule is :mod:`repro.farm.executor`'s, the
        same for batch ``repro farm``.
    backoff_s / retry_policy:
        Relaunch-delay schedule, shared with the batch farm:
        ``backoff_s`` is shorthand for ``RetryPolicy(base_s=backoff_s)``
        (exponential, capped at 2 s); an explicit
        :class:`~repro.farm.retry.RetryPolicy` wins.
    timeout_s:
        Default per-job wall-clock limit (jobs may override).
    checkpoint_every:
        Quanta between mid-run checkpoints for lockstep kernel jobs —
        the knob that makes preemption cheap to resume.
    recover:
        Replay ``<spool>/journal.jsonl`` on construction: terminal jobs
        are restored (an ``ok`` job with the payload its journal record
        carries, so completed work is never re-run), the rest are
        re-enqueued — resuming from their spool checkpoint where one
        exists — and workers orphaned by the crash are marked on the
        job streams (see :mod:`repro.serve.journal`).
    fault_plan:
        Optional :class:`repro.reliability.FaultPlan` for chaos runs:
        worker faults key on the job's 0-based admission order,
        ``host-stall`` faults on deploy host names, and ``socket-drop``
        faults close client connections *before* dispatch.
    suspect_after / quarantine_after / probe_interval:
        When set, override the deploy manager's host-health circuit
        breaker thresholds (see :mod:`repro.farm.deploy`).
    """

    def __init__(self, spool: str | os.PathLike,
                 deploy: DeployManager | str | None = None,
                 store: SharedResultStore | str | os.PathLike | None | bool = None,
                 quotas: dict[str, int] | None = None,
                 default_quota: int | None = None,
                 max_retries: int = 2,
                 backoff_s: float = 0.1,
                 timeout_s: float | None = None,
                 checkpoint_every: int = 2,
                 socket_path: str | os.PathLike | None = None,
                 store_max_entries: int | None = None,
                 store_max_bytes: int | None = None,
                 recover: bool = False,
                 fault_plan=None,
                 retry_policy: RetryPolicy | None = None,
                 suspect_after: int | None = None,
                 quarantine_after: int | None = None,
                 probe_interval: int | None = None) -> None:
        self.spool = pathlib.Path(spool)
        self.deploy = resolve_deploy(deploy, None)
        if suspect_after is not None:
            self.deploy.suspect_after = max(1, int(suspect_after))
        if quarantine_after is not None:
            self.deploy.quarantine_after = max(
                self.deploy.suspect_after, int(quarantine_after))
        if probe_interval is not None:
            self.deploy.probe_interval = max(1, int(probe_interval))
        if store is False:
            self.store = None
        elif isinstance(store, SharedResultStore):
            self.store = store
        else:
            root = self.spool / "store" if store in (None, True) else store
            self.store = SharedResultStore(root,
                                           max_entries=store_max_entries,
                                           max_bytes=store_max_bytes)
        self.scheduler = FairScheduler(quotas=quotas,
                                       default_quota=default_quota)
        self._executor = Executor(
            self.deploy, max_retries=max(0, int(max_retries)),
            retry_policy=(retry_policy
                          or RetryPolicy(base_s=max(0.0, float(backoff_s)))),
            timeout_s=timeout_s, fault_plan=fault_plan,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=max(1, int(checkpoint_every)))
        self.fault_plan = fault_plan
        self.socket_path = pathlib.Path(socket_path
                                        if socket_path is not None
                                        else self._default_socket())
        self.jobs: dict[str, JobRecord] = {}
        #: per-job instrument recipes (a submit-time option, not job identity)
        self._instrument_specs: dict[str, dict] = {}
        self._streams: dict[str, InstrumentStream] = {}
        self._active: dict[str, Attempt] = {}
        #: parked ``status`` replies, by job id (see :meth:`_park`)
        self._waiters: dict[str, set[asyncio.Future]] = {}
        #: requests in flight, one task each
        self._handlers: set[asyncio.Task] = set()
        self._seq = 0
        self._closing = False
        self._crashed = False
        self._drain = True
        self._req_count = 0
        #: pending coalesced manifest rewrite, and how many were made
        self._manifest_timer: asyncio.TimerHandle | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._done: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._watchdog_task: asyncio.Future | None = None
        # the spool layout, made once: per-job code only ever writes files
        for sub in ("streams", "ckpt"):
            (self.spool / sub).mkdir(parents=True, exist_ok=True)
        self.journal = ServeJournal(self.spool / "journal.jsonl")
        if recover:
            self._recover()

    # -- paths ---------------------------------------------------------------

    def _default_socket(self) -> pathlib.Path:
        path = self.spool / "serve.sock"
        # AF_UNIX paths are capped (~108 bytes); deep tmpdirs overflow it
        if len(str(path)) > 96:
            return pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-")) / "s"
        return path

    def stream_path(self, job_id: str) -> pathlib.Path:
        return self.spool / "streams" / f"{job_id}.jsonl"

    def instrument_dir(self, job_id: str) -> pathlib.Path:
        return self.spool / "streams" / job_id

    @property
    def checkpoint_dir(self) -> pathlib.Path:
        return self.spool / "ckpt"

    # -- progress streams ----------------------------------------------------

    def _stream(self, rec: JobRecord) -> InstrumentStream:
        stream = self._streams.get(rec.id)
        if stream is None:
            path = self.stream_path(rec.id)
            # a recovered job appends to the stream the crashed server
            # left behind — only a genuinely new file gets a meta record
            fresh = not path.exists()
            stream = InstrumentStream(path)
            if fresh:
                stream.write({"t": "meta", "schema": STREAM_SCHEMA,
                              "source": "serve", "job": rec.id,
                              "label": rec.job.label, "tenant": rec.tenant,
                              "config": rec.job.config.name})
            self._streams[rec.id] = stream
        return stream

    def _event(self, rec: JobRecord, event: str, **extra: Any) -> None:
        """Append one lifecycle record to the job's progress stream."""
        self._stream(rec).write({"t": "serve", "event": event,
                                 "job": rec.id, "state": rec.state, **extra})

    def _seal(self, rec: JobRecord) -> None:
        stream = self._streams.pop(rec.id, None)
        if stream is not None:
            stream.seal(reason=rec.state)

    # -- state transitions and the replies parked on them --------------------

    def _set_state(self, rec: JobRecord, state: str,
                   **journal_extra: Any) -> None:
        """Every state change of every job: assign, journal (write-ahead
        of whatever the caller does next), wake that job's parked
        ``status`` replies — the only place one is woken."""
        rec.state = state
        self.journal.state(rec, **journal_extra)
        for fut in self._waiters.get(rec.id, ()):
            _wake(fut)

    def _complete(self, rec: JobRecord, payload: dict[str, Any]) -> None:
        """Every job that finishes ``ok``: the journal record of the
        state carries the payload, the result's one durable copy."""
        rec.payload = payload
        self._set_state(rec, "ok", payload=payload)

    def _release_waiters(self) -> None:
        """The server is stopping: every parked reply goes out now."""
        for futs in self._waiters.values():
            for fut in futs:
                _wake(fut)

    async def _park(self, req: dict[str, Any]) -> None:
        """Hold a ``status`` request that carries ``wait_s`` until its job
        is in a state listed in ``until`` (default: terminal), can no
        longer change state, ``wait_s`` (capped at ``MAX_WAIT_S``) has
        passed, or the server stops — the ordinary reply follows.

        A parked reply is one future in ``_waiters``: it costs the
        scheduler nothing while it waits and nothing if its client has
        gone away (the reply is then written to a closed socket).
        """
        wait_s = min(float(req["wait_s"]), MAX_WAIT_S)
        if not wait_s > 0 or req.get("id") is None:
            return
        rec = self._record(req)
        until = req.get("until")
        if until is None:
            states = TERMINAL_STATES
        elif (isinstance(until, list)
              and all(isinstance(state, str) for state in until)):
            states = frozenset(until)
        else:
            raise ServeError("'until' must be a list of state names")
        assert self._loop is not None and self._done is not None
        deadline = self._loop.time() + wait_s
        while (rec.state not in states and not rec.done
               and not self._done.is_set()):
            left = deadline - self._loop.time()
            if left <= 0:
                return
            fut = self._loop.create_future()
            futs = self._waiters.setdefault(rec.id, set())
            futs.add(fut)
            timer = self._loop.call_later(left, _wake, fut)
            try:
                await fut
            finally:
                # woken, expired or cancelled: it takes itself out
                timer.cancel()
                futs.discard(fut)
                if not futs:
                    self._waiters.pop(rec.id, None)

    # -- crash recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal left by a crashed server (see module
        docstring of :mod:`repro.serve.journal`)."""
        restored = requeued = 0
        for s in replay_journal(self.journal.path):
            try:
                job = job_from_wire(s["job"])
            except ServeError:
                continue  # submit line torn beyond use
            self._seq = max(self._seq, s["seq"])
            rec = JobRecord(id=s["id"], tenant=s["tenant"],
                            priority=s["priority"], job=job, seq=s["seq"],
                            state=s["state"], attempts=int(s["attempts"]),
                            host=s["host"], error=s["error"],
                            resumed=bool(s["resumed"]),
                            from_cache=bool(s["from_cache"]))
            rec.stream = str(self.stream_path(rec.id))
            if s["instrument"] is not None:
                self._instrument_specs[rec.id] = s["instrument"]
            self.jobs[rec.id] = rec
            # an ok record without a payload (schema 1) is re-queued
            if s["terminal"] and (rec.state != "ok"
                                  or s["payload"] is not None):
                rec.payload = s["payload"]
                restored += 1
                continue
            if s["orphaned"] and s["pid"] is not None:
                rec.orphan_pid = int(s["pid"])
                self._event(rec, "orphaned", pid=rec.orphan_pid,
                            attempt=rec.attempts)
            self._requeue_recovered(rec, was=s["state"])
            requeued += 1
        self.journal.append({"t": "recover", "restored": restored,
                             "requeued": requeued})

    def _store_hit(self, rec: JobRecord) -> bool:
        """Complete *rec* from the shared store, if it has the payload.

        Never for an instrumented job: a hit would yield no stream.
        """
        if (self.store is None or not rec.job.cacheable
                or rec.id in self._instrument_specs):
            return False
        payload = self.store.get(rec.key)
        if payload is None:
            return False
        rec.from_cache = True
        self._complete(rec, payload)
        return True

    def _requeue_recovered(self, rec: JobRecord, was: str) -> None:
        """Re-admit one unfinished journal job into the scheduler."""
        rec.recovered = True
        ckpt = self.checkpoint_dir / f"{rec.key}.ckpt"
        # completed-elsewhere fast path: a store hit means the work is
        # already done (possibly by a twin submission) — don't redo it
        if self._store_hit(rec):
            self._event(rec, "recovered", was=was)
            self._event(rec, "store-hit")
            self._seal(rec)
            return
        rec.host = None
        self._set_state(rec, "queued")
        self._event(rec, "recovered", was=was, checkpoint=ckpt.exists())
        self.scheduler.submit(rec)

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            self._req_count += 1
            if (self.fault_plan is not None
                    and self.fault_plan.socket_drop(self._req_count)):
                # chaos: drop the connection before reading the request,
                # so nothing was dispatched and a client retry is safe
                return
            line = await reader.readline()
            if not line:
                return
            try:
                req = json.loads(line.decode("utf-8"))
                if not isinstance(req, dict):
                    raise ValueError("request must be a JSON object")
                if req.get("op") == "status" and "wait_s" in req:
                    await self._park(req)
                resp = self._dispatch(req)
            except ServeError as exc:
                resp = {"ok": False, "error": str(exc)}
            except (ValueError, KeyError, TypeError) as exc:
                resp = {"ok": False, "error": f"bad request: {exc}"}
            writer.write(json.dumps(resp, sort_keys=True).encode("utf-8")
                         + b"\n")
            await writer.drain()
        except ConnectionError:
            pass  # the client went away (a parked one, typically): no reply
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._handlers.discard(task)

    def _dispatch(self, req: dict[str, Any]) -> dict[str, Any]:
        op = req.get("op")
        if op == "ping":
            return {"ok": True, "protocol": PROTOCOL_VERSION,
                    "deploy": self.deploy.describe(),
                    "scheduler": self.scheduler.describe(),
                    "jobs": len(self.jobs), "running": len(self._active)}
        if op == "submit":
            return self._op_submit(req)
        if op == "status":
            return self._op_status(req)
        if op == "cancel":
            return self._op_cancel(req)
        if op == "resume":
            return self._op_resume(req)
        if op == "shutdown":
            return self._op_shutdown(req)
        raise ServeError(f"unknown op {op!r}")

    def _record(self, req: dict[str, Any]) -> JobRecord:
        rec = self.jobs.get(str(req.get("id")))
        if rec is None:
            raise ServeError(f"unknown job id {req.get('id')!r}")
        return rec

    def _op_submit(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._closing:
            raise ServeError("server is shutting down; submit rejected")
        job = job_from_wire(req.get("job"))
        tenant = str(req.get("tenant", "default"))
        priority = int(req.get("priority", 0))
        instrument = req.get("instrument")
        if instrument is not None and not isinstance(instrument, dict):
            raise ServeError("'instrument' must be an InstrumentSpec dict")
        self._seq += 1
        rec = JobRecord(id=f"j{self._seq:04d}", tenant=tenant,
                        priority=priority, job=job, seq=self._seq)
        rec.stream = str(self.stream_path(rec.id))
        self.jobs[rec.id] = rec
        # write-ahead: the admission hits the journal before any state
        # the crash could lose is built up
        self.journal.submit(rec, wire=dict(req.get("job") or {}),
                            instrument=instrument)
        self._event(rec, "queued", tenant=tenant, priority=priority)

        if instrument is not None:
            self._instrument_specs[rec.id] = instrument
        # store fast path: a previously computed payload completes the
        # job without ever touching the scheduler
        if self._store_hit(rec):
            self._event(rec, "store-hit")
            self._seal(rec)
            self._manifest_stale()
            return {"ok": True, **rec.describe()}
        self.scheduler.submit(rec)
        self._pump()
        return {"ok": True, **rec.describe()}

    def _op_status(self, req: dict[str, Any]) -> dict[str, Any]:
        if req.get("id") is not None:
            rec = self._record(req)
            doc = rec.describe(with_payload=bool(req.get("payload")))
            # only a job submitted with an instrument spec has the directory
            if rec.id in self._instrument_specs:
                streams = sorted(str(p) for p in
                                 self.instrument_dir(rec.id).glob("*.jsonl"))
                if streams:
                    doc["instrument_streams"] = streams
            return {"ok": True, **doc}
        doc = {
            "ok": True,
            "scheduler": self.scheduler.describe(),
            "deploy": self.deploy.describe(),
            "jobs": [self.jobs[k].describe() for k in sorted(self.jobs)],
            "workers_spawned": self._executor.pool.spawned,
        }
        if self.store is not None:
            doc["store"] = self.store.stats_snapshot().data["store"]
        return doc

    def _op_cancel(self, req: dict[str, Any]) -> dict[str, Any]:
        rec = self._record(req)
        preempt = bool(req.get("preempt"))
        if rec.done:
            raise ServeError(f"job {rec.id} already {rec.state}")
        if rec.state == "queued":
            # never ran: preempting a queued job is just a cancel
            self.scheduler.withdraw(rec)
            self._set_state(rec, "cancelled")
            self._event(rec, "cancelled", was="queued")
            self._seal(rec)
            self._manifest_stale()
        elif rec.state == "running":
            if preempt:
                rec.preempt_requested = True
            else:
                rec.cancel_requested = True
            run = self._active.get(rec.id)
            if run is not None:
                run.worker.terminate()
            # state transition happens when the worker pipe closes
        elif rec.state == "preempted":
            if preempt:
                raise ServeError(f"job {rec.id} is already preempted")
            self._set_state(rec, "cancelled")
            self._event(rec, "cancelled", was="preempted")
            self._seal(rec)
            self._manifest_stale()
        return {"ok": True, **rec.describe()}

    def _op_resume(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._closing:
            raise ServeError("server is shutting down; resume rejected")
        rec = self._record(req)
        if rec.state != "preempted":
            raise ServeError(
                f"job {rec.id} is {rec.state}; only preempted jobs resume")
        self._set_state(rec, "queued")
        self._event(rec, "resume-queued")
        self.scheduler.submit(rec)
        self._pump()
        return {"ok": True, **rec.describe()}

    def _op_shutdown(self, req: dict[str, Any]) -> dict[str, Any]:
        drain = bool(req.get("drain", True))
        self._closing = True
        self._drain = drain
        if not drain:
            for run in list(self._active.values()):
                run.rec.preempt_requested = True
                run.worker.terminate()
        self._maybe_finish()
        return {"ok": True, "drain": drain,
                "running": len(self._active),
                "queued": self.scheduler.queued}

    # -- dispatch loop -------------------------------------------------------

    def _pump(self) -> None:
        """Launch queued jobs while slots and quotas allow."""
        if self._closing and not self._drain:
            return
        while (run := self._executor.launch(self.scheduler.pick,
                                            self._instrument)) is not None:
            rec = run.rec
            rec.pid = run.worker.pid
            self._set_state(rec, "running", pid=rec.pid)
            self._active[rec.id] = run
            self._event(rec, "start", attempt=rec.attempts, host=rec.host)
            assert self._loop is not None
            self._loop.add_reader(run.worker.conn.fileno(),
                                  self._on_worker_done, rec.id)

    def _instrument(self, rec: JobRecord) -> tuple:
        """The job's instrument recipe and stream directory, if any."""
        spec = self._instrument_specs.get(rec.id)
        if spec is None:
            return None, None
        idir = self.instrument_dir(rec.id)
        idir.mkdir(parents=True, exist_ok=True)
        return spec, idir

    def _on_worker_done(self, job_id: str) -> None:
        """Worker pipe became readable: a result, an error, or EOF from
        a dead/terminated process — all outcomes land here."""
        run = self._active.pop(job_id, None)
        if run is None:
            return
        assert self._loop is not None
        self._loop.remove_reader(run.worker.conn.fileno())
        rec = run.rec
        status, data, meta = self._executor.reap(run)
        rec.elapsed_s = time.monotonic() - run.started
        self.scheduler.job_finished(rec.tenant)
        self._transition(rec, status, data, meta)
        self._pump()
        self._maybe_finish()

    def _transition(self, rec: JobRecord, status: str, data: Any,
                    meta: dict[str, Any]) -> None:
        rec.pid = None
        if rec.cancel_requested:
            self._set_state(rec, "cancelled")
            self._event(rec, "cancelled", was="running")
            self._seal(rec)
        elif rec.migrate_requested and status != "ok":
            # the host was quarantined under this job: preempt-and-requeue
            # via the checkpoint path, at no cost to the retry budget
            rec.migrate_requested = False
            rec.migrations += 1
            if rec.migrations <= len(self.deploy.hosts):
                rec.host_credits += 1
            from_host = rec.host
            ckpt = self.checkpoint_dir / f"{rec.key}.ckpt"
            self._set_state(rec, "queued")
            self._event(rec, "migrate", attempt=rec.attempts,
                        from_host=from_host, checkpoint=ckpt.exists())
            self.scheduler.submit(rec)
            # _pump follows in _on_worker_done; the job lands on a
            # healthy host because acquire() skips quarantined ones
        elif rec.preempt_requested and status != "ok":
            rec.preempt_requested = False
            ckpt = self.checkpoint_dir / f"{rec.key}.ckpt"
            self._set_state(rec, "preempted")
            self._event(rec, "preempted", attempt=rec.attempts,
                        checkpoint=ckpt.exists())
            # stream stays unsealed: a resume continues the same file
        elif status == "ok":
            rec.migrate_requested = False
            rec.resumed = bool(meta.get("resumed"))
            self._executor.settle(rec, status)
            if (self.store is not None and rec.job.cacheable
                    and rec.id not in self._instrument_specs):
                self.store.put(rec.key, rec.job, data)
            self._complete(rec, data)
            if rec.migrations:
                self._event(rec, "recover", host=rec.host,
                            resumed=rec.resumed, migrations=rec.migrations)
            self._event(rec, "ok", attempt=rec.attempts,
                        resumed=rec.resumed, cycles=data.get("cycles"))
            self._seal(rec)
        else:
            rec.error = str(data)
            verdict = self._executor.settle(rec, status)
            if verdict.quarantined:
                # trip the migration of everything else on that host
                self._event(rec, "quarantine", host=rec.host,
                            error=rec.error)
                self._migrate_host(rec.host)
            if verdict.retry and not self._closing:
                self._set_state(rec, "queued")
                self._event(rec, "retry", attempt=rec.attempts,
                            error=rec.error)
                assert self._loop is not None
                self._loop.call_later(verdict.delay, self._requeue, rec)
            else:
                self._set_state(rec, "failed")
                self._event(rec, "failed", attempt=rec.attempts,
                            error=rec.error)
                self._seal(rec)
        if rec.done:
            self._manifest_stale()

    def _migrate_host(self, host: str) -> None:
        """Preempt every other job still running on a newly quarantined
        host; each lands back in the queue via its checkpoint."""
        for other in list(self._active.values()):
            rec = other.rec
            if rec.host == host and not rec.done:
                rec.migrate_requested = True
                other.worker.terminate()

    def _requeue(self, rec: JobRecord) -> None:
        if rec.state != "queued" or self._closing and not self._drain:
            return
        self.scheduler.submit(rec)
        self._pump()

    async def _watchdog(self) -> None:
        """Kill running jobs that blew their wall-clock limit."""
        while True:
            await asyncio.sleep(0.05)
            self._executor.expire(self._active.values())

    # -- manifest ------------------------------------------------------------

    def _manifest_stale(self) -> None:
        """A job reached a terminal state: rewrite the manifest soon.

        The manifest lists every job, so rewriting it per transition
        costs O(jobs) each time; transitions inside one
        ``MANIFEST_QUIET_S`` window share a single rewrite instead.  The
        manifest is therefore a view that may trail the journal by that
        long; shutdown writes it once more, and recovery never reads it.
        """
        if (self._manifest_timer is None and self._loop is not None
                and not self._crashed):
            self._manifest_timer = self._loop.call_later(
                MANIFEST_QUIET_S, self._write_manifest)

    def _write_manifest(self) -> None:
        if self._manifest_timer is not None:
            self._manifest_timer.cancel()
            self._manifest_timer = None
        path = self.spool / "manifest.json"
        doc = {
            "protocol": PROTOCOL_VERSION,
            "deploy": self.deploy.describe(),
            "scheduler": self.scheduler.describe(),
            "jobs": [self.jobs[k].describe() for k in sorted(self.jobs)],
        }
        atomic_write(path, json.dumps(doc, indent=2, sort_keys=True))

    # -- lifecycle -----------------------------------------------------------

    def _maybe_finish(self) -> None:
        if not self._closing or self._active:
            return
        if self._drain and self.scheduler.queued:
            return
        if self._done is not None:
            self._release_waiters()
            self._done.set()

    def crash(self) -> None:
        """Chaos/test hook: die the way a SIGKILL'd server does.

        Workers are killed (the "machine" went down with the server),
        streams are left unsealed, no manifest is written, and the
        journal stops exactly where it stands — the state a
        ``recover=True`` restart has to cope with.  Must run on the
        server's event loop (``ServerHandle.crash`` marshals it).
        """
        self._crashed = True
        if self._manifest_timer is not None:
            self._manifest_timer.cancel()
            self._manifest_timer = None
        # the pipes close with the pool: stop watching them first, or a
        # dead server would go on journalling its workers' deaths
        assert self._loop is not None
        for run in self._active.values():
            self._loop.remove_reader(run.worker.conn.fileno())
        self._executor.pool.close()
        self._release_waiters()
        if self._done is not None:
            self._done.set()

    async def start(self) -> None:
        """Bind the socket and start background tasks."""
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path), limit=_MAX_LINE)
        self._watchdog_task = asyncio.ensure_future(self._watchdog())
        # jobs re-enqueued by a journal replay are waiting for the loop
        if self.scheduler.queued:
            self._pump()

    async def serve_forever(self, on_started=None) -> None:
        """Run until a ``shutdown`` request finishes draining."""
        await self.start()
        if on_started is not None:
            on_started()
        assert self._done is not None
        try:
            await self._done.wait()
        finally:
            self._watchdog_task.cancel()
            self._executor.pool.close()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            if self._handlers:
                await asyncio.wait(self._handlers, timeout=HANDLER_GRACE_S)
            # the listener's handler closure and the cancelled task's
            # traceback both point back here: dropped, a stopped server
            # (and every payload in self.jobs) is freed with its last
            # reference instead of waiting for a full gc
            self._server = self._watchdog_task = None
            if not self._crashed:
                for job_id, stream in list(self._streams.items()):
                    stream.seal(reason="server-shutdown")
                    self._streams.pop(job_id, None)
                self._write_manifest()
                try:
                    self.socket_path.unlink()
                except OSError:
                    pass
            self.journal.close()

    @classmethod
    def start_background(cls, spool: str | os.PathLike,
                         **kwargs: Any) -> "ServerHandle":
        """Run a server on a daemon thread; returns a ready handle.

        The in-process path that tests, doc examples, and the smoke
        script use: the caller keeps the main thread (and its client)
        and the server loop runs beside it.
        """
        server = cls(spool, **kwargs)
        started = threading.Event()

        def _run() -> None:
            asyncio.run(server.serve_forever(on_started=started.set))

        thread = threading.Thread(target=_run, daemon=True,
                                  name="repro-serve")
        thread.start()
        if not started.wait(timeout=10.0):
            raise ServeError("server failed to start within 10s")
        return ServerHandle(server, thread)


class ServerHandle:
    """A background :class:`FarmServer` plus the thread running it."""

    def __init__(self, server: FarmServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def endpoint(self) -> str:
        return str(self.server.socket_path)

    def client(self):
        from .client import ServeClient
        return ServeClient(self.endpoint)

    def stop(self, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Request shutdown and join the server thread."""
        if self.thread.is_alive():
            try:
                self.client().shutdown(drain=drain)
            except (ServeError, OSError):
                pass  # already shutting down / socket gone
        self.thread.join(timeout=timeout_s)

    def crash(self, timeout_s: float = 10.0) -> None:
        """Hard-crash the server (chaos tests): no drain, no manifest,
        no stream seals — see :meth:`FarmServer.crash`."""
        loop = self.server._loop
        if loop is not None and self.thread.is_alive():
            loop.call_soon_threadsafe(self.server.crash)
        self.thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
