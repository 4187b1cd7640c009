"""Deploy managers: pluggable run-farm host-slot backends.

FireSim separates *what* to run (the manager's job list) from *where* to
run it (a run farm of provisioned hosts).  Its ``externally_provisioned``
run farm takes a fixed fleet of pre-existing hosts, each with a declared
simulation capacity, and the manager packs simulations onto free slots.
This module is the same split for the reproduction: a
:class:`DeployManager` owns the host-slot inventory, and the scheduler
(:class:`~repro.farm.runfarm.RunFarm` or the ``repro.serve`` server)
asks it for a slot before launching each worker and hands the slot back
when the worker is reaped.

Backends:

* :class:`LocalDeployManager` — one host (``local``) with N identical
  slots; byte-for-byte the farm's historical ``workers=N`` pool.
* :class:`ExternallyProvisionedDeployManager` — a fixed fleet of named
  hosts with per-host capacities (FireSim's ``externally_provisioned``
  analogue).  Slot assignment is deterministic (least-loaded fraction,
  ties broken by declaration order) so a re-run packs jobs onto the
  same hosts.

Where a job runs is **provenance, never identity**: every backend
launches the same worker entry point on the same machine, so payloads
are bit-identical across backends by construction — the host name only
lands in :class:`~repro.farm.job.JobResult` host-side metadata.

Spec strings (``--deploy`` / ``$REPRO_DEPLOY``)::

    local            one slot (serial)
    local:8          eight local slots
    hosts:a=2,b=4    externally provisioned: host a (2 slots), b (4)

Host health
-----------

Every host carries a :class:`HostHealth` record driven by the scheduler
reporting outcomes back (:meth:`DeployManager.report_success` /
:meth:`DeployManager.report_failure`).  Only *host-correlated* failures
(worker crashes, wall-clock timeouts — not a job raising in its own
workload) count against a host.  A consecutive-failure circuit breaker
moves a host ``healthy -> suspect -> quarantined``:

* **healthy** — preferred for placement;
* **suspect** — still schedulable, but only when no healthy host has a
  free slot;
* **quarantined** — excluded from :meth:`DeployManager.acquire` except
  for deterministic *half-open probe* jobs: once ``probe_interval``
  acquire ticks have passed, a single in-flight job may land on the
  host; success restores it to healthy, failure re-quarantines it with
  an exponentially growing probe delay.  When every host is quarantined
  the breaker fails open (a probe is allowed early) so the farm cannot
  deadlock itself.

Everything is counted in acquire ticks, not wall-clock, so a replay of
the same acquire/report sequence makes identical placement decisions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "DeployManager",
    "ExternallyProvisionedDeployManager",
    "HostHealth",
    "HostSpec",
    "LocalDeployManager",
    "parse_deploy_spec",
    "resolve_deploy",
]

#: probe-delay growth is capped at probe_interval * 2**_MAX_PROBE_BACKOFF
_MAX_PROBE_BACKOFF = 4


@dataclass(frozen=True)
class HostSpec:
    """One run-farm host: a name and how many simulations it can hold."""

    name: str
    slots: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.slots < 1:
            raise ValueError(f"host {self.name!r} needs >= 1 slot, "
                             f"got {self.slots}")


@dataclass
class HostHealth:
    """Circuit-breaker state for one host (see module docstring)."""

    state: str = "healthy"          #: healthy | suspect | quarantined
    consecutive_failures: int = 0   #: host-correlated failures in a row
    failures: int = 0               #: lifetime host-correlated failures
    successes: int = 0
    quarantines: int = 0            #: times the breaker fully opened
    probe_due: int = 0              #: acquire tick when a probe unlocks
    probe_backoff: int = field(default=1, repr=False)
    probing: bool = field(default=False, repr=False)

    def describe(self) -> dict[str, Any]:
        return {"state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "failures": self.failures,
                "successes": self.successes,
                "quarantines": self.quarantines}


class DeployManager:
    """Host-slot inventory shared by every run-farm backend.

    The scheduler contract is two calls: :meth:`acquire` returns the
    name of a host with a free slot (or ``None`` when the farm is
    saturated) and marks it busy; :meth:`release` frees it.  Acquisition
    order is deterministic for a fixed acquire/release sequence.

    Schedulers that want the circuit breaker additionally call
    :meth:`report_success` / :meth:`report_failure` after each reaped
    worker; a manager that never receives reports behaves exactly like
    the pre-health inventory (every host stays healthy forever).
    """

    kind = "base"

    def __init__(self, hosts: Sequence[HostSpec], *,
                 suspect_after: int = 2,
                 quarantine_after: int = 3,
                 probe_interval: int = 8) -> None:
        if not hosts:
            raise ValueError("a deploy manager needs at least one host")
        names = [h.name for h in hosts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate host names in {names}")
        if suspect_after < 1:
            raise ValueError(f"suspect_after must be >= 1, got {suspect_after}")
        if quarantine_after < suspect_after:
            raise ValueError(
                f"quarantine_after ({quarantine_after}) must be >= "
                f"suspect_after ({suspect_after})")
        if probe_interval < 1:
            raise ValueError(f"probe_interval must be >= 1, "
                             f"got {probe_interval}")
        self.hosts = tuple(hosts)
        self.suspect_after = int(suspect_after)
        self.quarantine_after = int(quarantine_after)
        self.probe_interval = int(probe_interval)
        self._busy: dict[str, int] = {h.name: 0 for h in hosts}
        self._health: dict[str, HostHealth] = {h.name: HostHealth()
                                               for h in hosts}
        self._tick = 0

    @property
    def total_slots(self) -> int:
        return sum(h.slots for h in self.hosts)

    @property
    def busy_slots(self) -> int:
        return sum(self._busy.values())

    def acquire(self) -> str | None:
        """Claim one slot; returns its host name, or None when full.

        Healthy hosts are preferred over suspect ones; within a class
        the host with the lowest occupancy *fraction* wins (spreading
        load the way FireSim packs FPGAs across hosts), declaration
        order breaking ties, so assignment is reproducible.  Quarantined
        hosts are skipped entirely except for half-open probes (see
        module docstring).
        """
        self._tick += 1
        best: HostSpec | None = None
        best_key: tuple[bool, float, int] | None = None
        for i, h in enumerate(self.hosts):
            busy = self._busy[h.name]
            if busy >= h.slots:
                continue
            hh = self._health[h.name]
            if hh.state == "quarantined":
                continue
            key = (hh.state == "suspect", busy / h.slots, i)
            if best_key is None or key < best_key:
                best, best_key = h, key
        if best is not None:
            self._busy[best.name] += 1
            return best.name
        probe = self._pick_probe(require_due=True)
        if probe is None and all(hh.state == "quarantined"
                                 for hh in self._health.values()):
            # fail open: every host is quarantined, so waiting for the
            # probe window would deadlock the farm — probe early
            probe = self._pick_probe(require_due=False)
        if probe is not None:
            self._health[probe].probing = True
            self._busy[probe] += 1
            return probe
        return None

    def _pick_probe(self, *, require_due: bool) -> str | None:
        """The quarantined host (if any) due for a half-open probe:
        one in-flight probe per host, earliest ``probe_due`` first,
        declaration order breaking ties."""
        best: str | None = None
        best_key: tuple[int, int] | None = None
        for i, h in enumerate(self.hosts):
            hh = self._health[h.name]
            if (hh.state != "quarantined" or hh.probing
                    or self._busy[h.name] >= h.slots):
                continue
            if require_due and self._tick < hh.probe_due:
                continue
            key = (hh.probe_due, i)
            if best_key is None or key < best_key:
                best, best_key = h.name, key
        return best

    def release(self, host: str) -> None:
        if self._busy.get(host, 0) <= 0:
            raise ValueError(f"release of idle/unknown host {host!r}")
        self._busy[host] -= 1
        self._health[host].probing = False

    # -- health reporting ----------------------------------------------------

    def health(self, host: str) -> HostHealth:
        try:
            return self._health[host]
        except KeyError:
            raise ValueError(f"unknown host {host!r}") from None

    def report_success(self, host: str) -> None:
        """A worker on *host* finished cleanly: close the breaker."""
        hh = self.health(host)
        hh.successes += 1
        hh.consecutive_failures = 0
        hh.probe_backoff = 1
        hh.state = "healthy"

    def report_failure(self, host: str, *,
                       job_intrinsic: bool = False) -> None:
        """A worker on *host* crashed/timed out.

        ``job_intrinsic=True`` means the failure was attributed to the
        job itself (its workload raised, or it failed identically on
        other hosts) and must not count against the host.
        """
        hh = self.health(host)
        if job_intrinsic:
            return
        hh.failures += 1
        hh.consecutive_failures += 1
        if hh.state == "quarantined":
            # a failed half-open probe: back off exponentially
            hh.quarantines += 1
            hh.probe_backoff = min(hh.probe_backoff * 2,
                                   2 ** _MAX_PROBE_BACKOFF)
            hh.probe_due = self._tick + self.probe_interval * hh.probe_backoff
        elif hh.consecutive_failures >= self.quarantine_after:
            hh.state = "quarantined"
            hh.quarantines += 1
            hh.probe_backoff = 1
            hh.probe_due = self._tick + self.probe_interval
        elif hh.consecutive_failures >= self.suspect_after:
            hh.state = "suspect"

    def describe(self) -> dict[str, Any]:
        """JSON-able inventory summary (manifests, `repro status`)."""
        return {
            "kind": self.kind,
            "total_slots": self.total_slots,
            "hosts": [{"name": h.name, "slots": h.slots,
                       "busy": self._busy[h.name],
                       **self._health[h.name].describe()}
                      for h in self.hosts],
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.busy_slots}/"
                f"{self.total_slots} slots busy)")


class LocalDeployManager(DeployManager):
    """The historical multiprocessing pool: one host, N identical slots."""

    kind = "local"

    def __init__(self, workers: int = 1, **health_kw: int) -> None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"local deploy needs >= 1 worker, "
                             f"got {workers}")
        super().__init__([HostSpec("local", workers)], **health_kw)


class ExternallyProvisionedDeployManager(DeployManager):
    """A fixed fleet of named hosts with per-host simulation capacity.

    Modeled on FireSim's ``externally_provisioned`` run farm: the fleet
    is declared up front (nothing is launched or torn down), and the
    manager only packs simulations onto the declared slots.  Workers
    still execute locally — the host name is provenance that flows into
    ``JobResult.host`` and the run manifest.
    """

    kind = "externally-provisioned"

    def __init__(self, hosts: Sequence[HostSpec | tuple[str, int] | str],
                 **health_kw: int) -> None:
        specs: list[HostSpec] = []
        for h in hosts:
            if isinstance(h, HostSpec):
                specs.append(h)
            elif isinstance(h, str):
                specs.append(HostSpec(h))
            else:
                name, slots = h
                specs.append(HostSpec(str(name), int(slots)))
        super().__init__(specs, **health_kw)


def parse_deploy_spec(spec: str) -> DeployManager:
    """Build a deploy manager from a spec string (see module docstring)."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty deploy spec")
    if spec == "local":
        return LocalDeployManager(1)
    if spec.startswith("local:"):
        try:
            workers = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad local deploy spec {spec!r} "
                             "(want local:<workers>)") from None
        # a parsed-but-bad count (local:0, local:-2) propagates the
        # LocalDeployManager ValueError, which names the real problem
        return LocalDeployManager(workers)
    if spec.startswith("hosts:"):
        body = spec.split(":", 1)[1]
        hosts: list[HostSpec] = []
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                name, _, slots = part.partition("=")
                try:
                    hosts.append(HostSpec(name.strip(), int(slots)))
                except ValueError:
                    raise ValueError(
                        f"bad host entry {part!r} in {spec!r} "
                        "(want name=slots)") from None
            else:
                hosts.append(HostSpec(part))
        if not hosts:
            raise ValueError(f"deploy spec {spec!r} names no hosts")
        return ExternallyProvisionedDeployManager(hosts)
    raise ValueError(
        f"unknown deploy spec {spec!r}; want 'local[:N]' or "
        "'hosts:name=slots,...'")


def resolve_deploy(deploy: DeployManager | str | None = None,
                   workers: int | None = None) -> DeployManager:
    """Normalise a deploy argument the way :func:`resolve_workers` does.

    Precedence: an explicit manager or spec string, else ``$REPRO_DEPLOY``,
    else a :class:`LocalDeployManager` sized by *workers* (which itself
    falls back to ``$REPRO_WORKERS``, then 1).
    """
    if isinstance(deploy, DeployManager):
        return deploy
    if isinstance(deploy, str):
        return parse_deploy_spec(deploy)
    env = os.environ.get("REPRO_DEPLOY")
    if env:
        return parse_deploy_spec(env)
    from .runfarm import resolve_workers
    return LocalDeployManager(resolve_workers(workers))
