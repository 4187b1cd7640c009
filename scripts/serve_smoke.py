#!/usr/bin/env python3
"""Serve smoke check (CI): the farm-as-a-service surface, end to end.

One background :class:`repro.serve.FarmServer` instance is driven
through every serving contract the docs promise:

1. two tenant queues with different priorities all complete, and every
   served payload is **bit-identical** to serial ``execute_job``;
2. a job submitted twice is served from the shared result store the
   second time (terminal at submit, no second simulation), and the
   store's durable hit/insert counters say so;
3. a live job can be tailed mid-run and its stream ends with a seal
   exactly when the job does;
4. a running lockstep job survives preempt + resume and still matches
   the uninterrupted serial payload bit for bit;
5. all of it ran on warm pool workers — ``workers_spawned`` stays within
   slots + retired workers (here: the one preempt), not one per job —
   and no worker pid outlives the drained shutdown;
6. completion is pushed, not polled — every ``client.wait`` costs at
   most two ``status`` requests, whatever state it waits for — and the
   store's in-place counters come out exact: after the drain
   ``store.stats.json`` reads the hits, misses and inserts of this job
   mix, no more, no fewer.

Exit code 0 on success; any assertion failure is a regression.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.farm import Job, execute_job  # noqa: E402
from repro.serve import FarmServer  # noqa: E402
from repro.soc import ROCKET1, ROCKET2  # noqa: E402

QUICK = dict(scale=0.05)
SLOW = dict(scale=0.3, quantum=256)
SLOTS = 2


def main() -> int:
    spool = pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    waits = []
    with FarmServer.start_background(spool, deploy=f"local:{SLOTS}",
                                     default_quota=1,
                                     checkpoint_every=2) as handle:
        client = handle.client()
        assert client.ping()["protocol"] >= 1

        def wait(jid, **kw):
            """``client.wait``, held to its request budget: the server
            wakes the parked reply, the client does not poll."""
            before = handle.server._req_count
            doc = client.wait(jid, **kw)
            waits.append(handle.server._req_count - before)
            assert waits[-1] <= 2, \
                f"wait({jid}, {kw}) cost {waits[-1]} status requests"
            return doc

        # -- two tenants, mixed priorities, bit-identity ------------------
        submitted = []
        for tenant, priority, cfg, name in (
                ("alice", 5, ROCKET1, "EI"),
                ("alice", 0, ROCKET1, "Cca"),
                ("bob", 2, ROCKET2, "EI"),
                ("bob", 0, ROCKET2, "DP1f")):
            job = Job.kernel(cfg, name, **QUICK)
            doc = client.submit(job, tenant=tenant, priority=priority)
            submitted.append((doc["id"], job))
        for jid, job in submitted:
            done = wait(jid, timeout_s=180)
            assert done["state"] == "ok", done
            assert done["payload"] == execute_job(job), \
                f"served {jid} diverged from serial"
        sched = client.status()["scheduler"]["tenants"]
        assert set(sched) == {"alice", "bob"}, sched

        # -- store round trip: resubmit is terminal at submit -------------
        jid0, job0 = submitted[0]
        again = client.submit(job0, tenant="carol")
        assert again["state"] == "ok" and again["from_cache"], again
        first = client.status(jid0, payload=True)["payload"]
        assert client.status(again["id"], payload=True)["payload"] == first
        store = client.status()["store"]
        assert store["hits"] >= 1 and store["inserts"] >= len(submitted), store

        # -- tail a live job mid-run --------------------------------------
        live = client.submit(Job.kernel(ROCKET1, "MM", **SLOW),
                             tenant="alice")
        wait(live["id"], timeout_s=60, until={"running"})
        records = list(client.tail(live["id"], follow=True, timeout_s=120))
        events = [r["event"] for r in records if r.get("t") == "serve"]
        assert events == ["queued", "start", "ok"], events
        assert records[-1]["t"] == "seal", records[-1]
        assert client.status(live["id"])["state"] == "ok"

        # -- preempt + resume stays bit-identical -------------------------
        pjob = Job.kernel(ROCKET2, "MM", **SLOW)
        pre = client.submit(pjob, tenant="bob")
        wait(pre["id"], timeout_s=60, until={"running"})
        time.sleep(0.3)  # let a couple of checkpoints land
        client.cancel(pre["id"], preempt=True)
        parked = wait(pre["id"], timeout_s=60, until={"preempted"})
        assert parked["attempts"] == 1, parked
        client.resume(pre["id"])
        done = wait(pre["id"], timeout_s=180)
        assert done["state"] == "ok", done
        assert done["resumed"] is True, done
        assert done["payload"] == execute_job(pjob), \
            "resumed payload diverged from uninterrupted serial run"

        # -- warm workers: one per slot, plus one for the preempt ---------
        status = client.status()
        crashes = sum(h["failures"] for h in status["deploy"]["hosts"])
        spawned = status["workers_spawned"]
        assert 0 < spawned <= SLOTS + crashes + 1, status
        # the server runs on a thread of this process: its workers are ours
        pids = [p.pid for p in multiprocessing.active_children()]
        assert pids, "no warm worker left idle"

    # -- a drained shutdown leaves no worker behind -----------------------
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"worker {pid} outlived the drained shutdown")

    # -- the store's counters are exactly this job mix --------------------
    # every submit looked the job up (one hit: carol's), every completed
    # run inserted once (the preempted job only when it finally finished)
    ran = len(submitted) + 2
    counted = json.loads((spool / "store" / "store.stats.json").read_text())
    assert (counted["hits"], counted["misses"], counted["inserts"],
            counted["evictions"]) == (1, ran, ran, 0), counted

    print(f"serve smoke ok: {len(submitted)} jobs across 2 tenant queues "
          f"bit-identical to serial, store hit served carol, live tail "
          f"sealed with the job, preempt+resume matched serial "
          f"(attempts={done['attempts']}, resumed={done['resumed']}), "
          f"{spawned} workers forked for {len(status['jobs'])} jobs, "
          f"none left after the drain, {len(waits)} waits cost "
          f"{sum(waits)} status requests, store counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
