"""Run-farm scheduler: shard independent jobs across worker processes.

Modeled on FireSim's manager (``deploy/runtools``), which farms one
simulation per FPGA host and babysits the fleet: here each "host" slot
is a long-lived worker process of a :class:`~repro.farm.pool.WorkerPool`
running one :class:`Job` at a time.  :class:`RunFarm` is the blocking
front end of :class:`~repro.farm.executor.Executor`, which launches,
reaps, times out and charges every attempt exactly as it does for the
serve layer: a crashed or hung worker is retired and its job retried
with backoff on a fresh one.

Host-slot inventory is delegated to a pluggable
:class:`~repro.farm.deploy.DeployManager` (the FireSim manager/run-farm
split): the executor acquires a slot before launching a worker and
releases it at reap, so the local pool and an externally provisioned
host fleet run through one code path and produce bit-identical results.

Determinism contract: the merged result list is ordered by submission
index and every payload comes from :func:`repro.farm.job.execute_job`,
so the output is bit-identical for any worker count and any completion
order.  Host-side provenance (attempts, wall-clock, cache hits) lives
on :class:`~repro.farm.job.JobResult` next to the payload, never inside
it.

Graceful degradation: ``workers=1`` (or an unavailable multiprocessing
stack) runs everything in-process through the same code path, minus
preemptive timeouts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import signal
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Iterable, Sequence

from .._atomic import atomic_write
from ..telemetry import Snapshot
from .cache import ResultCache, cache_key
from .deploy import DeployManager, resolve_deploy
from .executor import Attempt, Executor, JobTally
from .job import Job, JobResult, execute_job_meta

__all__ = [
    "FARM_SCHEMA",
    "FarmEvent",
    "FarmStats",
    "RunFarm",
    "resolve_cache",
    "resolve_workers",
    "run_jobs",
]

#: schema of the farm-stats telemetry snapshot
FARM_SCHEMA = 1


def resolve_workers(workers: int | None = None) -> int:
    """Explicit worker count, else ``$REPRO_WORKERS``, else 1 (serial)."""
    if workers is None:
        try:
            workers = int(os.environ.get("REPRO_WORKERS", "1"))
        except ValueError:
            workers = 1
    return max(1, int(workers))


def resolve_cache(cache: ResultCache | str | os.PathLike | None = None,
                  ) -> ResultCache | None:
    """Normalise a cache argument: pass through, wrap a path, or fall
    back to ``$REPRO_CACHE_DIR`` (unset: no caching)."""
    if cache is None:
        env = os.environ.get("REPRO_CACHE_DIR")
        return ResultCache(env) if env else None
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    return cache


@dataclass
class FarmStats:
    """Farm-level counters, exposed via telemetry like any other stats."""

    jobs: int = 0
    ok: int = 0
    failed: int = 0
    simulated: int = 0      #: attempts that ran a simulation to completion
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    errors: int = 0         #: attempts that raised in the workload
    timeouts: int = 0       #: attempts killed by the per-job timeout
    crashes: int = 0        #: workers that died without reporting
    corrupt: int = 0        #: cache entries quarantined as corrupt
    resumed: int = 0        #: attempts resumed from a mid-run checkpoint
    interrupted: int = 0    #: jobs abandoned by a graceful shutdown
    workers_spawned: int = 0  #: pool workers forked by the run

    def to_snapshot(self) -> Snapshot:
        """Counters as a :class:`repro.telemetry.Snapshot` (flat/JSON/CSV
        export and delta arithmetic come for free)."""
        return Snapshot({"schema": FARM_SCHEMA,
                         "farm": dataclasses.asdict(self)})


@dataclass
class FarmEvent:
    """One progress notification (job picked up, finished, retried...)."""

    kind: str               #: "cache-hit" | "start" | "ok" | "retry" |
                            #: "failed" | "interrupted"
    index: int              #: job position in the submitted list
    total: int
    job: Job
    attempt: int = 0
    error: str | None = None
    elapsed_s: float = 0.0


class RunFarm:
    """Schedule a job list across workers with caching and retries.

    Parameters
    ----------
    workers:
        Worker process count; ``None`` reads ``$REPRO_WORKERS``; 1 runs
        serially in-process.  Ignored when *deploy* is given (the
        backend's slot inventory wins).
    deploy:
        :class:`~repro.farm.deploy.DeployManager`, a spec string
        (``"local:4"``, ``"hosts:a=2,b=4"``), or ``None``
        (``$REPRO_DEPLOY`` if set, else a local pool of *workers*
        slots).  Selects where jobs land; results are bit-identical
        across backends.
    cache:
        :class:`ResultCache`, a directory path, or ``None``
        (``$REPRO_CACHE_DIR`` if set, else uncached).
    timeout_s:
        Per-job wall-clock limit, enforced in parallel mode by killing
        the worker (jobs may override via ``Job.timeout_s``).  Serial
        mode cannot preempt and ignores it.
    max_retries:
        Extra attempts after the first for a raising/crashed/hung job;
        a job that exhausts them is reported ``failed`` without
        aborting the rest of the sweep.  A worker crash or timeout on a
        host the job has not failed on is charged to the host, not to
        this budget (:mod:`repro.farm.executor`, shared with serve).
    backoff_s:
        Base relaunch delay; attempt *n* waits
        ``backoff_s * 2**(n-1)`` (capped at 2 s) before going back on
        a worker, the schedule the serve layer's re-queues follow too.
    on_event:
        Optional ``Callable[[FarmEvent], None]`` for live progress.
    fault_plan:
        Optional :class:`repro.reliability.FaultPlan`; worker faults
        (kill/hang/error) are delivered to the matching (job index,
        attempt), cache faults damage entries before the preload pass.
    checkpoint_dir:
        Directory for mid-run job checkpoints.  Lockstep kernel jobs
        (built with ``Job.kernel(..., quantum=...)``) save a checkpoint
        every ``checkpoint_every`` quanta there, and a retry of a
        crashed/timed-out job **resumes from the last checkpoint**
        (bit-identically) instead of restarting from zero — still
        bounded by ``max_retries``.
    manifest_path:
        When set, a JSON manifest of per-job outcomes and farm stats is
        written there after every run — including a partial one cut
        short by Ctrl-C/SIGTERM.
    instrument:
        Optional :class:`repro.instrument.InstrumentSpec` (or its
        ``to_dict()`` form) attached to every kernel job.  Streams are
        written to ``instrument_dir`` as ``<label>.jsonl`` and are
        tail-able (``repro tail`` / :func:`repro.instrument.tail_stream`)
        while the job is still running.  Instrumented sweeps always
        simulate: the result cache and payload memo are bypassed so a
        stream actually exists, and payloads stay bit-identical to
        uninstrumented runs.
    instrument_dir:
        Where per-job streams land; defaults to the checkpoint dir's
        sibling behaviour (in-memory, discarded) when unset.
    """

    def __init__(self, workers: int | None = None,
                 cache: ResultCache | str | os.PathLike | None = None,
                 timeout_s: float | None = None, max_retries: int = 2,
                 backoff_s: float = 0.25,
                 on_event: Callable[[FarmEvent], None] | None = None,
                 fault_plan=None,
                 checkpoint_dir: str | os.PathLike | None = None,
                 checkpoint_every: int = 8,
                 manifest_path: str | os.PathLike | None = None,
                 instrument=None,
                 instrument_dir: str | os.PathLike | None = None,
                 deploy: DeployManager | str | None = None) -> None:
        self.deploy = resolve_deploy(deploy, workers)
        self.workers = self.deploy.total_slots
        self.cache = resolve_cache(cache)
        self.timeout_s = timeout_s
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.on_event = on_event
        self.fault_plan = fault_plan
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.manifest_path = manifest_path
        # normalise to the picklable dict form once, here, so every
        # worker (fork or spawn) sees the identical recipe
        self.instrument_spec = (instrument.to_dict()
                                if hasattr(instrument, "to_dict")
                                else instrument)
        self.instrument_dir = instrument_dir
        self.stats = FarmStats()
        #: True when the last run was cut short by Ctrl-C / SIGTERM
        self.interrupted = False

    # -- public API ----------------------------------------------------------

    def run(self, jobs: Iterable[Job]) -> list[JobResult]:
        """Run every job; returns results in submission order.

        A ``KeyboardInterrupt`` or SIGTERM mid-run shuts down gracefully:
        in-flight results are kept, workers are reaped, the remaining
        jobs are reported with status ``"interrupted"``, and the manifest
        (if configured) records the partial sweep.
        """
        jobs = list(jobs)
        self.stats = stats = FarmStats(jobs=len(jobs))
        results: list[JobResult | None] = [None] * len(jobs)
        self._total = len(jobs)
        self.interrupted = False
        corrupt_before = (self.cache.corrupt_quarantined
                          if self.cache is not None else 0)
        if self.fault_plan is not None and self.cache is not None:
            self._apply_cache_faults(jobs)

        todo: list[tuple[int, str | None]] = []
        for i, job in enumerate(jobs):
            # instrumented sweeps bypass the cache: a hit would return a
            # payload without producing the stream the operator asked for
            key = (cache_key(job)
                   if self.cache is not None and job.cacheable
                   and self.instrument_spec is None else None)
            payload = self.cache.get(key) if key is not None else None
            if payload is not None:
                stats.cache_hits += 1
                results[i] = JobResult(job=job, index=i, status="ok",
                                       payload=payload, from_cache=True)
                self._emit("cache-hit", i, job)
            else:
                if key is not None:
                    stats.cache_misses += 1
                todo.append((i, key))

        # one executor, so one pool, per run: workers fork from this
        # process as it is now, and environment changes reach them
        ex = Executor(self.deploy, max_retries=self.max_retries,
                      backoff_s=self.backoff_s,
                      timeout_s=self.timeout_s, fault_plan=self.fault_plan,
                      checkpoint_dir=self.checkpoint_dir,
                      checkpoint_every=self.checkpoint_every)
        restore_handler = self._install_sigterm()
        try:
            if todo:
                if self.workers > 1 and len(todo) > 1:
                    try:
                        self._run_parallel(ex, jobs, todo, results)
                    except OSError:
                        # pool unavailable (fd limits, sandboxed fork, ...):
                        # degrade to in-process execution of whatever is left
                        left = [(i, k) for i, k in todo if results[i] is None]
                        self._run_serial(ex, jobs, left, results)
                else:
                    self._run_serial(ex, jobs, todo, results)
        except KeyboardInterrupt:
            self.interrupted = True
        finally:
            restore_handler()
            ex.pool.close()
            stats.workers_spawned = ex.pool.spawned

        for i, job in enumerate(jobs):
            if results[i] is None:
                stats.interrupted += 1
                results[i] = JobResult(
                    job=job, index=i, status="interrupted",
                    error="farm shut down before this job finished")
                self._emit("interrupted", i, job)
        out = [r for r in results if r is not None]
        assert len(out) == len(jobs), "scheduler lost a job"
        stats.ok = sum(1 for r in out if r.ok)
        stats.failed = len(out) - stats.ok - stats.interrupted
        if self.cache is not None:
            stats.corrupt = self.cache.corrupt_quarantined - corrupt_before
        self._write_manifest(out)
        return out

    # -- shared plumbing -----------------------------------------------------

    def _emit(self, kind: str, index: int, job: Job, attempt: int = 0,
              error: str | None = None, elapsed_s: float = 0.0) -> None:
        if self.on_event is not None:
            self.on_event(FarmEvent(kind=kind, index=index, total=self._total,
                                    job=job, attempt=attempt, error=error,
                                    elapsed_s=elapsed_s))

    def _instrument(self, rec: JobTally) -> tuple:
        """Every job's instrument recipe and stream directory."""
        return self.instrument_spec, self.instrument_dir

    def _install_sigterm(self) -> Callable[[], None]:
        """Route SIGTERM into KeyboardInterrupt for the graceful-shutdown
        path; returns a restorer.  No-op off the main thread (signal
        handlers can only be installed there)."""

        def _to_interrupt(signum, frame):
            raise KeyboardInterrupt("SIGTERM")

        try:
            previous = signal.signal(signal.SIGTERM, _to_interrupt)
        except ValueError:  # not the main thread
            return lambda: None
        return lambda: signal.signal(signal.SIGTERM, previous)

    def _apply_cache_faults(self, jobs: Sequence[Job]) -> None:
        """Damage on-disk cache entries named by the fault plan (chaos
        testing the quarantine path)."""
        from ..reliability.faults import corrupt_cache_entry
        rng = self.fault_plan.rng()
        for fault in self.fault_plan.cache_faults():
            index = fault.param("entry", fault.param("job"))
            if index is None or not 0 <= int(index) < len(jobs):
                continue
            job = jobs[int(index)]
            if not job.cacheable:
                continue
            mode = ("truncate" if fault.kind == "truncate-cache"
                    else str(fault.param("mode", "garbage")))
            corrupt_cache_entry(self.cache, cache_key(job), mode=mode,
                                rng=rng)

    def _write_manifest(self, results: Sequence[JobResult]) -> None:
        if self.manifest_path is None:
            return
        path = pathlib.Path(self.manifest_path)
        doc = {
            "schema": FARM_SCHEMA,
            "interrupted": self.interrupted,
            "deploy": self.deploy.describe(),
            "stats": dataclasses.asdict(self.stats),
            "jobs": [
                {"index": r.index, "label": r.job.label, "status": r.status,
                 "attempts": r.attempts, "from_cache": r.from_cache,
                 "resumed": r.resumed, "error": r.error, "host": r.host,
                 "elapsed_s": round(r.elapsed_s, 6)}
                for r in results
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, json.dumps(doc, indent=2, sort_keys=True))

    def _settle(self, ex: Executor, results, rec: JobTally,
                key: str | None, status: str, data: Any,
                meta: dict[str, Any], elapsed_s: float) -> float | None:
        """Count and charge a finished attempt, record the job's result
        when it is done; the delay before its retry, else None."""
        verdict = ex.settle(rec, status)
        if status == "ok":
            self.stats.simulated += 1
            resumed = bool(meta.get("resumed"))
            self.stats.resumed += resumed
            if key is not None and self.cache is not None:
                self.cache.put(key, rec.job, data)
            result = JobResult(job=rec.job, index=rec.ordinal, status="ok",
                               payload=data, attempts=rec.attempts,
                               elapsed_s=elapsed_s, resumed=resumed,
                               host=rec.host)
        else:
            if status == "error":
                self.stats.errors += 1
            elif status == "timeout":
                self.stats.timeouts += 1
            else:
                self.stats.crashes += 1
            if verdict.retry:
                self.stats.retries += 1
                self._emit("retry", rec.ordinal, rec.job,
                           attempt=rec.attempts, error=data)
                return verdict.delay
            result = JobResult(job=rec.job, index=rec.ordinal,
                               status="failed", attempts=rec.attempts,
                               error=data, elapsed_s=elapsed_s, host=rec.host)
        results[rec.ordinal] = result
        self._emit(result.status, rec.ordinal, rec.job, attempt=rec.attempts,
                   error=result.error, elapsed_s=elapsed_s)
        return None

    # -- serial mode ---------------------------------------------------------

    def _run_serial(self, ex: Executor, jobs: Sequence[Job],
                    todo: Sequence[tuple[int, str | None]],
                    results: list[JobResult | None]) -> None:
        host = self.deploy.hosts[0].name
        for index, key in todo:
            rec = JobTally(jobs[index], index, host=host)
            while True:
                rec.attempts += 1
                self._emit("start", index, rec.job, attempt=rec.attempts)
                t0 = time.monotonic()
                try:
                    outcome = ("ok", *execute_job_meta(
                        rec.job, attempt=rec.attempts,
                        ctx=ex.context(rec, self._instrument,
                                       in_process=True)))
                except Exception as exc:
                    # an in-process exception is the workload's own
                    outcome = ("error", f"{type(exc).__name__}: {exc}", {})
                delay = self._settle(ex, results, rec, key, *outcome,
                                     elapsed_s=time.monotonic() - t0)
                if delay is None:
                    break
                time.sleep(delay)

    # -- parallel mode -------------------------------------------------------

    def _run_parallel(self, ex: Executor, jobs: Sequence[Job],
                      todo: Sequence[tuple[int, str | None]],
                      results: list[JobResult | None]) -> None:
        keys = dict(todo)
        #: (not-before time, index, tally) of jobs awaiting a worker
        waiting: list[tuple[float, int, JobTally]] = [
            (0.0, index, JobTally(jobs[index], index)) for index, _ in todo
        ]
        #: attempts on a worker, by the worker's pipe
        running: dict[Any, Attempt] = {}

        def reaped(run: Attempt) -> None:
            """A worker's pipe is readable: a report, or EOF from a dead
            or timed-out worker."""
            rec = run.rec
            status, data, meta = ex.reap(run)
            delay = self._settle(ex, results, rec, keys[rec.ordinal], status,
                                 data, meta, time.monotonic() - run.started)
            if delay is not None:
                waiting.append((time.monotonic() + delay, rec.ordinal, rec))

        try:
            while waiting or running:
                now = time.monotonic()
                waiting.sort()
                while waiting and waiting[0][0] <= now:
                    run = ex.launch(lambda: waiting.pop(0)[2],
                                    self._instrument)
                    if run is None:
                        break
                    running[run.worker.conn] = run
                    self._emit("start", run.rec.ordinal, run.rec.job,
                               attempt=run.rec.attempts)

                # sleep until a worker reports or dies, a retry comes
                # due, or a running job's time is up — whichever is first
                # (a due job still waiting is waiting for a slot, which
                # only a report frees)
                wake = [t for t, *_ in waiting if t > now][:1]
                wake += [r.deadline for r in running.values()
                         if r.deadline is not None]
                timeout = (max(0.0, min(wake) - time.monotonic())
                           if wake else None)
                if running:
                    for conn in connection.wait(list(running), timeout):
                        reaped(running.pop(conn))
                else:
                    # nothing running yet no slot granted: only a deploy
                    # manager with capacity of its own can say so — ask again
                    time.sleep(0.005 if timeout is None else timeout)
                ex.expire(running.values())
        finally:
            for run in running.values():
                self.deploy.release(run.worker.host)


def run_jobs(jobs: Iterable[Job], *, strict: bool = False,
             **farm_kw: Any) -> list[JobResult]:
    """One-call convenience: build a :class:`RunFarm` from *farm_kw*
    (its keyword arguments), run *jobs*.

    With ``strict=True`` any failed job raises ``RuntimeError`` (the
    sweep still ran to completion first, so the message lists every
    failure at once).
    """
    results = RunFarm(**farm_kw).run(jobs)
    if strict:
        failed = [r for r in results if not r.ok]
        if failed:
            lines = "; ".join(f"{r.job.label}: {r.error}" for r in failed)
            raise RuntimeError(
                f"{len(failed)}/{len(results)} farmed job(s) failed: {lines}")
    return results
