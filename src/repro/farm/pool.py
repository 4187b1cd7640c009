"""Persistent pre-forked worker pool behind ``RunFarm`` and ``FarmServer``.

A farmed simulation is often a few milliseconds of work, and a
``fork()`` plus child teardown per job used to cost more than the job.
A :class:`WorkerPool` instead keeps one long-lived worker process per
deploy slot, each running :func:`_worker_main` — a loop that receives
``(job, attempt, ExecContext)`` over a duplex pipe, runs
:func:`~repro.farm.job.execute_job_meta`, and sends back
``("ok", payload, meta)`` or ``("error", message, {"retired": bool})``.

Lifecycle
---------

* **Forked on first need.**  :meth:`WorkerPool.submit` reuses an idle
  worker of the requested host or forks one; a scheduler that serves
  everything from its cache never forks at all.
* **Reused only after a report.**  The scheduler reads the job's report
  with :meth:`Worker.result` and hands the worker back with
  :meth:`WorkerPool.release`; only a worker that reported and is still
  alive goes back on the idle list.
* **Retired, never repaired.**  Whatever used to ``terminate()`` a
  per-job process — a timeout, a cancel/preempt/migrate, a crash, an
  injected kill or hang — retires the worker (:meth:`Worker.terminate`;
  the scheduler then reads EOF and releases it), and the slot's next
  job forks a fresh one.  A worker whose job raised a non-``Exception``
  ``BaseException`` (``KeyboardInterrupt``, ``SystemExit``) reports it
  and then retires itself.
* **Never orphaned.**  Each worker watches its parent's pid and exits
  within :data:`ORPHAN_POLL_S` of the parent dying, mid-job or idle.

Which worker ran a job is provenance, never identity: a payload is a
pure function of its job — the contract serial mode (one process, every
job) has always relied on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import threading
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any

# Everything a kernel or sweep job runs is imported here, before the
# first fork, not on first use: this process pays for it once and no
# worker it forks pays again.  The kernels draw from numpy.random; the
# core loops import the trace compiler only at run time.
import numpy.random  # noqa: F401

from ..accel import batch as _batch, compile as _compile, memo  # noqa: F401
from ..core import inorder as _inorder, ooo as _ooo  # noqa: F401
from ..soc import system as _system  # noqa: F401
from ..telemetry import cpi as _cpi, registry as _registry  # noqa: F401
from ..workloads.microbench import suite as _suite  # noqa: F401
from . import cache as _cache  # noqa: F401
from .job import ExecContext, Job, execute_job_meta

__all__ = ["ORPHAN_POLL_S", "Worker", "WorkerPool"]

#: how often a worker checks that its parent is still there
ORPHAN_POLL_S = 1.0


def _exit_with_parent(parent: int) -> None:
    """Worker watchdog thread: die when the parent did.

    A worker in the middle of a job is not reading its pipe, so the
    parent's death would surface as EOF only after the job.
    """
    while os.getppid() == parent:
        time.sleep(ORPHAN_POLL_S)
    os._exit(0)


def _drop_inherited_sockets(keep: int) -> None:
    """Release every socket the fork copied into this process but fd *keep*.

    A worker holding a copy of the scheduler's listener, of its accepted
    client connections, or of the parent's end of a sibling's pipe keeps
    them open after the parent closes its own: a client or a sibling
    then never sees the hang-up.  Each such fd is pointed at /dev/null
    rather than closed, so a stale owner the fork also copied (a socket
    object, the signal wakeup fd) can never reach a file the job opens
    later under the same number.
    """
    try:
        fds = [int(fd) for fd in os.listdir("/dev/fd")]
    except OSError:
        return                  # no fd listing here: keep them all
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass            # the listing's own fd, gone by now
    finally:
        os.close(null)


def _worker_main(conn, parent: int) -> None:
    """Worker entry point: serve jobs from *conn* until it closes or the
    process *parent* (the pid that forked this one) is gone."""
    # a forked worker inherits the scheduler's SIGTERM->KeyboardInterrupt
    # handler; retired with SIGTERM, it would die with a traceback
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _drop_inherited_sockets(conn.fileno())
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     daemon=True).start()
    while True:
        try:
            job, attempt, ctx = conn.recv()
        except (EOFError, OSError):
            return
        retire = False
        try:
            try:
                payload, meta = execute_job_meta(job, attempt=attempt,
                                                 ctx=ctx)
                conn.send(("ok", payload, meta))
            except BaseException as exc:
                # an interrupt or exit is aimed at this process, not the
                # job: report it as the attempt's outcome, then retire
                retire = not isinstance(exc, Exception)
                conn.send(("error", f"{type(exc).__name__}: {exc}",
                           {"retired": retire}))
        except OSError:
            return  # the parent hung up mid-report
        if retire:
            return
        # a worker keeps nothing between jobs: carrying the accel caches
        # grew it by a third over a hundred jobs (the scheduler's peak
        # RSS pays), and keeping even the newest trace for a sweep's next
        # config bought no measurable time (docs/performance.md, "Warm
        # workers"); the payload memo sits behind the parent's
        # cache/store lookup and could not hit anyway
        memo.clear_caches()


class Worker:
    """Parent-side handle of one pool worker."""

    __slots__ = ("proc", "conn", "host", "reported", "retired")

    def __init__(self, proc, conn, host: str) -> None:
        self.proc = proc
        self.conn = conn
        self.host = host
        #: the running job's report has been read
        self.reported = False
        #: never to be reused (terminated, or retired itself)
        self.retired = False

    @property
    def pid(self) -> int:
        return self.proc.pid

    def result(self) -> tuple[str, Any, dict[str, Any]]:
        """The running job's report: ``("ok", payload, meta)``,
        ``("error", message, meta)``, or ``("crash", message, {})`` when
        the worker died (or was terminated) without reporting."""
        try:
            msg = self.conn.recv()      # always (status, data, meta)
        except (EOFError, OSError):
            return ("crash", "worker exited without reporting", {})
        self.reported = True
        self.retired = self.retired or bool(msg[2].get("retired"))
        return msg

    def terminate(self) -> None:
        """Kill the worker under its job; the scheduler then sees EOF on
        the pipe exactly as for a crash.  A report already in the pipe
        still counts, but the worker is never reused."""
        self.retired = True
        if self.proc.is_alive():
            self.proc.terminate()


class WorkerPool:
    """Long-lived forked workers, at most one per deploy slot.

    The pool owns processes, not policy: the executor
    (:mod:`repro.farm.executor`) decides where a job lands
    (``DeployManager.acquire``), when it has timed out, and what a
    failure means.  Not thread-safe — one scheduler
    loop drives it.
    """

    def __init__(self) -> None:
        # fork shares the warmed parent image (cheap start, inherited
        # hash seed keeps any hash-ordered iteration identical); fall
        # back to the platform default where fork does not exist
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        #: every live handle; the idle ones are also listed per host
        self._workers: set[Worker] = set()
        self._idle: dict[str, list[Worker]] = {}
        #: workers forked over the pool's lifetime (telemetry)
        self.spawned = 0

    def _spawn(self, host: str) -> Worker:
        conn, child = self._ctx.Pipe(duplex=True)
        try:
            # the parent's pid is taken on this side of the fork: a
            # worker asking for it could already be asking an orphanage
            proc = self._ctx.Process(target=_worker_main,
                                     args=(child, os.getpid()), daemon=True)
            proc.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child.close()
        self.spawned += 1
        worker = Worker(proc, conn, host)
        self._workers.add(worker)
        return worker

    def submit(self, host: str, job: Job, attempt: int,
               ctx: ExecContext) -> Worker:
        """Start *job* on a worker of *host*; returns its handle.

        An idle worker found dead (or whose pipe broke) is replaced
        here, never charged to the job.
        """
        # pickled before a worker is taken: an unpicklable argument
        # raises here and leaves the pool as it was
        task = ForkingPickler.dumps((job, attempt, ctx))
        idle = self._idle.get(host, ())
        while True:
            worker = idle.pop() if idle else self._spawn(host)
            worker.reported = False
            try:
                if worker.proc.is_alive():
                    worker.conn.send_bytes(task)
                    return worker
            except OSError:
                pass
            self._reap(worker)

    def release(self, worker: Worker) -> None:
        """Hand *worker* back after its job: kept for the slot's next
        job if it reported and is still alive, reaped otherwise."""
        if (worker.reported and not worker.retired
                and worker.proc.is_alive()):
            self._idle.setdefault(worker.host, []).append(worker)
        else:
            self._reap(worker)

    def _reap(self, worker: Worker) -> None:
        self._workers.discard(worker)
        # signal before hanging up, so a worker about to report dies of
        # the plain SIGTERM instead of tripping over a closed pipe
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.conn.close()
        worker.proc.join(timeout=5.0)

    def close(self) -> None:
        """Retire every worker, busy ones included."""
        self._idle.clear()
        for worker in list(self._workers):
            self._reap(worker)
