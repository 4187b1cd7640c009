"""Chaos oracle tier: the serve layer under seeded fault schedules.

:func:`diff_chaos` is the ``chaos`` tier of ``repro check``: it drives a
real :class:`~repro.serve.server.FarmServer` (background thread, forked
workers, unix socket) through the fault schedules of
:mod:`repro.reliability.faults` and holds it to the same oracle contract
as every other tier — **every submitted job terminates, and every
payload is bit-identical to a fault-free serial run**.

Two scenarios run per invocation:

* **crash/recover** — a worker-kill fault and a dropped client
  connection land mid-batch, then the server is hard-crashed (workers
  SIGKILLed, streams unsealed, journal torn wherever it stands) after
  the first job completes.  The store entries of every other job are
  corrupted on disk.  A ``recover=True`` restart must replay the
  journal, keep each completed job's payload (its ``ok`` record
  carries it) without re-running it, and re-run everything else to
  bit-identical payloads.
* **stall/quarantine** — a ``host-stall`` fault hangs the first launch
  on one host of a two-host fleet.  The watchdog timeout must trip the
  health breaker (``quarantine_after=1``), the stalled job must be
  re-placed on the healthy host at no cost to its retry budget, and
  the payloads must still match serial.

Everything is keyed on deterministic ordinals (admission order, request
order, per-host launch order), so a failing schedule replays exactly.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Iterable

from .progen import CheckProgram

__all__ = ["diff_chaos"]

#: worker-kill on the first job's first attempt + drop the first client
#: connection (the client's bounded retry must absorb it)
CRASH_PLAN = "kill job=0 attempt=1; socket-drop request=1"

#: hang the first worker launch placed on host ``a``
STALL_PLAN = "host-stall host=a count=1"


def _jobs(progs: Iterable[CheckProgram], config_name: str):
    from ..farm import Job
    from ..soc.presets import get_config

    cfg = get_config(config_name)
    return [Job.checkprog(cfg, f"chaos-{p.seed}", p.source, base=p.base)
            for p in progs]


def _corrupt_file(path: Path) -> None:
    """Garble one on-disk artifact the way real disk damage would."""
    if path.exists():
        path.write_bytes(b"\x00chaos-garbage\x00")


def diff_chaos(progs: Iterable[CheckProgram],
               config_name: str = "Rocket1",
               stall: bool = True,
               timeout_s: float = 60.0) -> list[str]:
    """Run the chaos scenarios over *progs*; returns divergence strings."""
    from ..farm import execute_job

    jobs = _jobs(progs, config_name)
    if not jobs:
        return []
    serial = [execute_job(j) for j in jobs]
    diffs = _crash_recover(jobs, serial, timeout_s)
    if stall:
        diffs += _stall_quarantine(jobs[:2], serial[:2], timeout_s)
    return diffs


def _crash_recover(jobs, serial, timeout_s: float) -> list[str]:
    from ..farm.cache import ResultCache, cache_key
    from ..reliability import FaultPlan
    from ..serve import FarmServer

    diffs: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        spool = Path(tmp) / "spool"
        plan = FaultPlan.parse(CRASH_PLAN)
        handle = FarmServer.start_background(
            spool, deploy="local:1", backoff_s=0.01, max_retries=2,
            fault_plan=plan)
        client = handle.client()
        # ids are assigned in admission order: jobs[i] -> j000{i+1}
        ids = [client.submit(j, tenant="chaos")["id"] for j in jobs]
        first = client.wait(ids[0], timeout_s=timeout_s, poll_s=0.01)
        if first["state"] != "ok":
            diffs.append(f"{ids[0]}: pre-crash state {first['state']} "
                         f"(error={first['error']})")
        if first["attempts"] != 2:
            diffs.append(f"{ids[0]}: kill fault gave attempts="
                         f"{first['attempts']}, want 2 (1 kill + 1 retry)")
        handle.crash()

        # disk damage while the server is down: every job but the first
        # loses its store entry (a finished job's payload is in the
        # journal; an unfinished one must re-run rather than read garbage)
        store = ResultCache(spool / "store")
        for job in jobs[1:]:
            _corrupt_file(store.path(cache_key(job)))

        handle = FarmServer.start_background(
            spool, deploy="local:1", backoff_s=0.01, max_retries=2,
            recover=True)
        client = handle.client()
        try:
            for job, jid, ref in zip(jobs, ids, serial):
                done = client.wait(jid, timeout_s=timeout_s, poll_s=0.01)
                if done["state"] != "ok":
                    diffs.append(f"{jid}: post-recover state "
                                 f"{done['state']} (error={done['error']})")
                    continue
                got = client.status(jid, payload=True)["payload"]
                if got != ref:
                    diffs.append(f"{jid}: recovered payload diverges "
                                 f"from serial")
            after = client.status(ids[0], payload=True)
            if after["attempts"] != first["attempts"]:
                diffs.append(
                    f"{ids[0]}: completed job re-ran across recovery "
                    f"(attempts {first['attempts']} -> {after['attempts']})")
            if after["payload"] != serial[0]:
                diffs.append(f"{ids[0]}: restored payload diverges "
                             f"from serial")
        finally:
            handle.stop()
        records = [json.loads(line) for line in
                   (spool / "journal.jsonl").read_text().splitlines()]
        recover = [r for r in records if r.get("t") == "recover"]
        if not recover or recover[-1]["restored"] < 1:
            diffs.append(f"journal replay restored nothing: {recover}")
    return diffs


def _stall_quarantine(jobs, serial, timeout_s: float) -> list[str]:
    from ..reliability import FaultPlan
    from ..serve import FarmServer

    diffs: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        handle = FarmServer.start_background(
            Path(tmp) / "spool", deploy="hosts:a=1,b=1", backoff_s=0.01,
            max_retries=1, timeout_s=1.0, fault_plan=FaultPlan.parse(
                STALL_PLAN),
            suspect_after=1, quarantine_after=1, probe_interval=1000)
        try:
            client = handle.client()
            # job 0 dispatches to host a immediately and stalls there
            ids = [client.submit(j, tenant="chaos")["id"] for j in jobs]
            for jid, ref in zip(ids, serial):
                done = client.wait(jid, timeout_s=timeout_s, poll_s=0.01)
                if done["state"] != "ok":
                    diffs.append(f"{jid}: stall scenario state "
                                 f"{done['state']} (error={done['error']})")
                    continue
                if client.status(jid, payload=True)["payload"] != ref:
                    diffs.append(f"{jid}: payload diverges from serial "
                                 f"after host stall")
            victim = client.status(ids[0])
            if victim["host"] != "b":
                diffs.append(f"{ids[0]}: stalled job finished on "
                             f"{victim['host']!r}, want healthy host 'b'")
            if victim["attempts"] != 2:
                diffs.append(f"{ids[0]}: stalled job attempts="
                             f"{victim['attempts']}, want 2")
            hosts = {h["name"]: h for h in
                     client.status()["deploy"]["hosts"]}
            if hosts["a"]["state"] != "quarantined":
                diffs.append(f"host a not quarantined after stall: "
                             f"{hosts['a']['state']}")
        finally:
            handle.stop()
    return diffs
