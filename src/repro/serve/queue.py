"""Multi-tenant job queues: priorities, quotas, and fair scheduling.

The serve layer admits jobs into *named tenant queues* (FireSim's
many-users-one-manager deployment picture).  Scheduling policy, in
order:

1. **Quotas.**  A tenant never holds more run-farm slots than its quota
   (default quota applies to tenants without an explicit one; ``None``
   means unlimited).  Quota only gates *dispatch* — submission is always
   accepted.
2. **Fairness across tenants.**  Among tenants with queued work and
   free quota, the scheduler picks the tenant with the fewest running
   jobs; ties go to the least-recently-served tenant, then name order.
   A flood from one tenant therefore cannot starve another: the other
   tenant's first job dispatches no later than the flood's second.
3. **Priority within a tenant.**  Higher integer priority dispatches
   first; equal priorities dispatch in submission order (FIFO).

Everything is deterministic for a fixed sequence of submit/pick/release
calls, which is what the scheduling tests pin.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..farm.cache import cache_key
from ..farm.job import Job

__all__ = ["FairScheduler", "JobRecord", "TERMINAL_STATES"]

#: states a job never leaves
TERMINAL_STATES = frozenset({"ok", "failed", "cancelled"})


@dataclass
class JobRecord:
    """One submitted job as the server tracks it, cradle to grave."""

    id: str
    tenant: str
    priority: int
    job: Job
    seq: int                        #: global admission order
    state: str = "queued"           #: queued|running|preempted|ok|failed|cancelled
    attempts: int = 0
    host: str | None = None
    error: str | None = None
    resumed: bool = False           #: last attempt resumed from a checkpoint
    from_cache: bool = False
    preempt_requested: bool = False
    cancel_requested: bool = False
    migrate_requested: bool = False  #: host quarantined under this job
    migrations: int = 0             #: times moved off a quarantined host
    recovered: bool = False         #: re-admitted from a journal replay
    orphan_pid: int | None = None   #: worker pid left behind by a crash
    pid: int | None = None          #: current worker pid, while running
    crash_hosts: list[str] = field(default_factory=list)
    host_credits: int = 0           #: host-attributed failures (don't
                                    #: count against the retry budget)
    elapsed_s: float = 0.0
    submitted_at: float = field(default_factory=time.time)
    stream: str | None = None       #: progress/instrument stream path
    result_path: str | None = None  #: persisted payload JSON, once terminal
    payload: dict[str, Any] | None = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ordinal(self) -> int:
        """0-based admission order, what worker faults key on."""
        return self.seq - 1

    @cached_property
    def key(self) -> str:
        """The job's content address (store key, checkpoint name),
        derived on first use; a journal replay simply derives it again."""
        return cache_key(self.job)

    def describe(self, with_payload: bool = False) -> dict[str, Any]:
        """Wire-able status summary (payload only on request)."""
        doc: dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "label": self.job.label,
            "kind": self.job.kind,
            "config": self.job.config.name,
            "workload": self.job.workload,
            "state": self.state,
            "attempts": self.attempts,
            "host": self.host,
            "error": self.error,
            "resumed": self.resumed,
            "from_cache": self.from_cache,
            "migrations": self.migrations,
            "recovered": self.recovered,
            "elapsed_s": round(self.elapsed_s, 6),
            "stream": self.stream,
            "result_path": self.result_path,
            "cycles": (self.payload or {}).get("cycles"),
        }
        if with_payload:
            doc["payload"] = self.payload
        return doc


class _Tenant:
    """Per-tenant queue state: sorted backlog + running accounting."""

    __slots__ = ("name", "backlog", "running", "last_served")

    def __init__(self, name: str) -> None:
        self.name = name
        #: queued records, kept sorted by (-priority, seq)
        self.backlog: list[tuple[tuple[int, int], JobRecord]] = []
        self.running = 0
        self.last_served = -1


class FairScheduler:
    """Pick the next job to dispatch across tenant queues.

    The scheduler owns only queue/dispatch bookkeeping; record state
    transitions belong to the server.  ``pick()`` pops the chosen record
    from its backlog and counts it running until :meth:`job_finished`.
    """

    def __init__(self, quotas: dict[str, int] | None = None,
                 default_quota: int | None = None) -> None:
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self._tenants: dict[str, _Tenant] = {}
        self._serve_seq = 0

    # -- admission -----------------------------------------------------------

    def _tenant(self, name: str) -> _Tenant:
        t = self._tenants.get(name)
        if t is None:
            t = self._tenants[name] = _Tenant(name)
        return t

    def submit(self, rec: JobRecord) -> None:
        """Queue *rec* (also how a retried/resumed job re-enters)."""
        t = self._tenant(rec.tenant)
        key = (-rec.priority, rec.seq)
        bisect.insort(t.backlog, (key, rec))

    def withdraw(self, rec: JobRecord) -> bool:
        """Drop a queued record (cancel); False when not queued here."""
        t = self._tenants.get(rec.tenant)
        if t is None:
            return False
        for i, (_, queued) in enumerate(t.backlog):
            if queued is rec:
                del t.backlog[i]
                return True
        return False

    # -- dispatch ------------------------------------------------------------

    def quota(self, tenant: str) -> int | None:
        return self.quotas.get(tenant, self.default_quota)

    def _dispatchable(self, t: _Tenant) -> bool:
        if not t.backlog:
            return False
        q = self.quota(t.name)
        return q is None or t.running < q

    def pick(self) -> JobRecord | None:
        """Pop and return the next record to launch, or None.

        Caller must pair every pick with a later :meth:`job_finished`.
        """
        candidates = [t for t in self._tenants.values()
                      if self._dispatchable(t)]
        if not candidates:
            return None
        t = min(candidates, key=lambda t: (t.running, t.last_served, t.name))
        self._serve_seq += 1
        t.last_served = self._serve_seq
        _, rec = t.backlog.pop(0)
        t.running += 1
        return rec

    def job_finished(self, tenant: str) -> None:
        """Release the quota slot a picked job held (any outcome)."""
        t = self._tenants.get(tenant)
        if t is None or t.running <= 0:
            raise ValueError(f"job_finished without a running job for "
                             f"tenant {tenant!r}")
        t.running -= 1

    # -- introspection -------------------------------------------------------

    @property
    def queued(self) -> int:
        return sum(len(t.backlog) for t in self._tenants.values())

    @property
    def running(self) -> int:
        return sum(t.running for t in self._tenants.values())

    def describe(self) -> dict[str, Any]:
        return {
            "default_quota": self.default_quota,
            "tenants": {
                t.name: {"queued": len(t.backlog), "running": t.running,
                         "quota": self.quota(t.name)}
                for t in sorted(self._tenants.values(), key=lambda t: t.name)
            },
        }
