"""One attempt of one job on a pool worker: the farm's executor core.

The batch :class:`~repro.farm.runfarm.RunFarm` (blocking, a
``connection.wait`` loop) and the :class:`~repro.serve.server.FarmServer`
(asyncio, ``loop.add_reader``) are two front ends of one
:class:`Executor`, the way FireSim's one manager drives a run farm
however it is asked to.  Each front end keeps how it waits, its queue
and what it records; the executor builds an attempt's
:class:`~repro.farm.job.ExecContext`, launches it, reaps it, kills it
at its deadline and settles what it cost.

The charge rule: a crash or timeout on a host the job has not failed on
before is the host's (the breaker counts it and the job earns a *host
credit*); a repeat failure on the same host, any failure after two
hosts, and every workload exception are the job's.  A job may retry
while ``attempts - host_credits <= max_retries``, after
``min(backoff_s * 2**(attempts-1), MAX_BACKOFF_S)`` seconds: a fixed,
replayable schedule (no jitter).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple

from .deploy import DeployManager
from .job import ExecContext, Job
from .pool import Worker, WorkerPool

__all__ = ["Attempt", "Executor", "JobTally", "Verdict"]

#: longest wait before any one retry, however long the retry budget
MAX_BACKOFF_S = 2.0


@dataclass(eq=False)
class JobTally:
    """What the executor keeps about one job across its attempts (the
    serve layer's :class:`~repro.serve.queue.JobRecord` has the same)."""

    job: Job
    ordinal: int                    #: 0-based position worker faults key on
    attempts: int = 0
    host: str | None = None         #: host of the latest attempt
    crash_hosts: list[str] = field(default_factory=list)
    host_credits: int = 0


class Verdict(NamedTuple):
    """What a settled attempt means for its job."""

    retry: bool         #: the job may launch again...
    delay: float        #: ...after this many seconds
    quarantined: bool   #: this failure quarantined the attempt's host


@dataclass(eq=False, slots=True)
class Attempt:
    """One attempt of one job on a pool worker, launch to reap."""

    rec: Any                        #: the job's tally (or JobRecord)
    worker: Worker
    limit: float | None             #: wall-clock budget, None for none
    started: float = field(default_factory=time.monotonic)
    timed_out: bool = False

    @property
    def deadline(self) -> float | None:
        """When the attempt's time is up; None without a limit, or once
        it was killed for it."""
        if self.limit is None or self.timed_out:
            return None
        return self.started + self.limit


class Executor:
    """Launch, reap and charge attempts on a :class:`WorkerPool`.

    One scheduler loop drives it.  The *instrument* a front end passes
    to :meth:`context` and :meth:`launch` maps a job's tally to its
    ``(instrument_spec, instrument_dir)``; it is never stored, so the
    executor holds no reference back to its front end.
    """

    def __init__(self, deploy: DeployManager, *, max_retries: int,
                 backoff_s: float, timeout_s: float | None,
                 fault_plan, checkpoint_dir, checkpoint_every: int) -> None:
        self.deploy = deploy
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.fault_plan = fault_plan
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.pool = WorkerPool()    #: forks on first launch, not here
        self._launches: dict[str, int] = {}  #: per host, for host-stall

    def context(self, rec: Any, instrument: Callable[[Any], tuple], *,
                in_process: bool = False) -> ExecContext:
        """The ExecContext of *rec*'s current attempt on ``rec.host``: the
        worker fault for (ordinal, attempt), else a ``host-stall`` by the
        host's launch count (never in-process: nothing could end it)."""
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.worker_fault(rec.ordinal, rec.attempts)
            if fault is None and not in_process:
                fault = self.fault_plan.host_stall(
                    rec.host, self._launches.get(rec.host, 0))
        spec, idir = instrument(rec)
        return ExecContext(fault=fault, checkpoint_dir=self.checkpoint_dir,
                           checkpoint_every=self.checkpoint_every,
                           in_process=in_process, instrument_spec=spec,
                           instrument_dir=idir)

    def launch(self, pick: Callable[[], Any],
               instrument: Callable[[Any], tuple]) -> Attempt | None:
        """Acquire a slot, take the next job from *pick* and start its
        next attempt on a worker of that host; None, the slot given
        back, when no slot is free or *pick* has nothing."""
        host = self.deploy.acquire()
        if host is None:
            return None
        rec = pick()
        if rec is None:
            self.deploy.release(host)
            return None
        rec.attempts += 1
        rec.host = host
        try:
            ctx = self.context(rec, instrument)
            self._launches[host] = self._launches.get(host, 0) + 1
            worker = self.pool.submit(host, rec.job, rec.attempts, ctx)
        except BaseException:
            self.deploy.release(host)
            raise
        limit = rec.job.timeout_s
        return Attempt(rec, worker, self.timeout_s if limit is None else limit)

    def reap(self, run: Attempt) -> tuple[str, Any, dict[str, Any]]:
        """*run*'s report once its pipe is readable, the worker handed
        back and the slot freed: ``("ok", payload, meta)``, ``("error",
        message, meta)``, ``("crash", message, {})``, or ``("timeout",
        message, meta)`` for one killed at its deadline."""
        status, data, meta = run.worker.result()
        self.pool.release(run.worker)
        self.deploy.release(run.worker.host)
        if run.timed_out and status != "ok":
            status, data = "timeout", f"timed out after {run.limit:g}s"
        return status, data, meta

    def expire(self, running: Iterable[Attempt]) -> None:
        """Kill every attempt past its deadline; it is reaped on EOF."""
        now = time.monotonic()
        for run in running:
            deadline = run.deadline
            if deadline is not None and now > deadline:
                run.timed_out = True
                run.worker.terminate()

    def settle(self, rec: Any, status: str) -> Verdict:
        """Charge *rec*'s finished attempt on ``rec.host`` (the rule in
        the module docstring) and report it to the host's breaker."""
        host = rec.host
        if status == "ok":
            self.deploy.report_success(host)
            return Verdict(False, 0.0, False)
        host_fault = status in ("crash", "timeout")
        intrinsic = (not host_fault or host in rec.crash_hosts
                     or len(rec.crash_hosts) >= 2)
        if host_fault and host not in rec.crash_hosts:
            rec.crash_hosts.append(host)
        health = self.deploy.health(host)
        was = health.state
        self.deploy.report_failure(host, job_intrinsic=intrinsic)
        if not intrinsic:
            rec.host_credits += 1
        return Verdict(
            rec.attempts - rec.host_credits <= self.max_retries,
            min(self.backoff_s * 2.0 ** (rec.attempts - 1), MAX_BACKOFF_S),
            health.state == "quarantined" and was != "quarantined")
