"""End-to-end FarmServer tests over the unix-socket protocol.

Every test runs a real server (background thread, forked workers) and a
real client; the payload assertions hold the served path to the same
bit-identity contract as serial :func:`repro.farm.execute_job`.
"""

import multiprocessing
import os
import pathlib
import socket
import time

import pytest

from repro.farm import Job, execute_job
from repro.instrument.stream import read_stream
from repro.serve import FarmServer, ServeError
from repro.soc import ROCKET1

EI = dict(name="EI", scale=0.05)
MM_SLOW = dict(name="MM", scale=0.3, quantum=256)


def kernel_job(**kw):
    kw = {**EI, **kw}
    return Job.kernel(ROCKET1, kw.pop("name"), **kw)


def serve(tmp_path, **kw):
    kw.setdefault("deploy", "local:1")
    kw.setdefault("backoff_s", 0.01)
    return FarmServer.start_background(tmp_path / "spool", **kw)


def wait_until(client, jid, states, timeout_s=60.0):
    return client.wait(jid, timeout_s=timeout_s, poll_s=0.01, until=states)


# ------------------------------------------------------------- happy path

def test_served_payload_bit_identical_to_serial(tmp_path):
    job = kernel_job(seed=3)
    with serve(tmp_path) as handle:
        client = handle.client()
        assert client.ping()["protocol"] >= 1
        doc = client.submit(job, tenant="alice")
        done = wait_until(client, doc["id"], {"ok", "failed"})
        assert done["state"] == "ok"
        assert done["payload"] == execute_job(job)
        assert done["host"] == "local"
        assert not done["resumed"] and not done["from_cache"]


def test_store_hit_completes_without_running(tmp_path):
    job = kernel_job(seed=4)
    with serve(tmp_path) as handle:
        client = handle.client()
        first = wait_until(client, client.submit(job)["id"], {"ok"})
        again = client.submit(job, tenant="bob")     # other tenant shares
        assert again["state"] == "ok"                # terminal at submit
        assert again["from_cache"] is True
        full = client.status(again["id"], payload=True)
        assert full["payload"] == first["payload"]
        stats = client.status()["store"]
        assert stats["hits"] == 1 and stats["inserts"] == 1


def test_stream_records_job_lifecycle(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(kernel_job(seed=5))
        wait_until(client, doc["id"], {"ok"})
        records = list(client.tail(doc["id"], follow=True, timeout_s=30))
    assert records[0]["t"] == "meta" and records[0]["source"] == "serve"
    events = [r["event"] for r in records if r["t"] == "serve"]
    assert events == ["queued", "start", "ok"]
    assert records[-1]["t"] == "seal" and records[-1]["reason"] == "ok"


def test_external_fleet_backend_bit_identical(tmp_path):
    """Serving through a FireSim-style host fleet changes provenance,
    never payloads."""
    jobs = [kernel_job(seed=s) for s in (30, 31, 32)]
    with serve(tmp_path, deploy="hosts:fpga-a=2,fpga-b=1",
               store=False) as handle:
        client = handle.client()
        docs = [client.submit(j) for j in jobs]
        for doc, job in zip(docs, jobs):
            done = wait_until(client, doc["id"], {"ok"})
            assert done["payload"] == execute_job(job)
            assert done["host"] in {"fpga-a", "fpga-b"}
        dep = client.status()["deploy"]
        assert dep["kind"] == "externally-provisioned"
        assert sum(h["busy"] for h in dep["hosts"]) == 0


# ------------------------------------------------------- failures, cancel

def test_failed_job_reports_error_after_retries(tmp_path):
    with serve(tmp_path, max_retries=1) as handle:
        client = handle.client()
        doc = client.submit(Job.selftest("raise"))
        done = wait_until(client, doc["id"], {"ok", "failed"})
        assert done["state"] == "failed"
        assert done["attempts"] == 2
        assert "injected failure" in done["error"]


def test_flaky_job_retries_to_success(tmp_path):
    with serve(tmp_path, max_retries=2) as handle:
        client = handle.client()
        doc = client.submit(Job.selftest("flaky", fail_times=1, value=9))
        done = wait_until(client, doc["id"], {"ok", "failed"})
        assert done["state"] == "ok" and done["attempts"] == 2
        assert done["payload"]["value"] == 9


def test_cancel_queued_job(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        blocker = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
        victim = client.submit(kernel_job(seed=6))
        got = client.cancel(victim["id"])
        assert got["state"] == "cancelled"
        with pytest.raises(ServeError, match="already cancelled"):
            client.cancel(victim["id"])
        wait_until(client, blocker["id"], {"ok"})


def test_unknown_ops_and_ids_are_protocol_errors(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        with pytest.raises(ServeError, match="unknown job id"):
            client.status("j9999")
        with pytest.raises(ServeError, match="unknown op"):
            client._request({"op": "explode"})


# --------------------------------------------------------- preempt/resume

def test_preempt_resume_is_bit_identical(tmp_path):
    job = Job.kernel(ROCKET1, **MM_SLOW)
    with serve(tmp_path, checkpoint_every=2) as handle:
        client = handle.client()
        doc = client.submit(job, tenant="alice")
        wait_until(client, doc["id"], {"running"}, timeout_s=30)
        time.sleep(0.3)          # let a couple of checkpoints land
        client.cancel(doc["id"], preempt=True)
        pre = wait_until(client, doc["id"], {"preempted"}, timeout_s=30)
        assert pre["attempts"] == 1

        done = wait_until(client, client.resume(doc["id"])["id"], {"ok"})
        assert done["resumed"] is True
        assert done["attempts"] == 2
        assert done["payload"] == execute_job(job)

        events = [r["event"] for r in read_stream(doc["stream"])
                  if r.get("t") == "serve"]
        assert events == ["queued", "start", "preempted",
                          "resume-queued", "start", "ok"]


def test_preempted_job_can_be_cancelled_instead(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
        wait_until(client, doc["id"], {"running"}, timeout_s=30)
        client.cancel(doc["id"], preempt=True)
        wait_until(client, doc["id"], {"preempted"}, timeout_s=30)
        assert client.cancel(doc["id"])["state"] == "cancelled"
        with pytest.raises(ServeError, match="only preempted"):
            client.resume(doc["id"])


# --------------------------------------------------- scheduling, observed

def _dispatch_order(server, ids):
    """Order in which *ids* first went ``running``, read from the
    write-ahead journal: jobs on a warm worker run back to back faster
    than any status poll could tell their order apart."""
    import json
    order = []
    for line in server.journal.path.read_text().splitlines():
        doc = json.loads(line)
        if (doc.get("t") == "state" and doc["state"] == "running"
                and doc["id"] in ids and doc["id"] not in order):
            order.append(doc["id"])
    return order


def test_priority_order_served_end_to_end(tmp_path):
    with serve(tmp_path, store=False) as handle:
        client = handle.client()
        blocker = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
        wait_until(client, blocker["id"], {"running"}, timeout_s=30)
        lo = client.submit(kernel_job(seed=10), priority=0)["id"]
        hi = client.submit(kernel_job(seed=11), priority=5)["id"]
        mid = client.submit(kernel_job(seed=12), priority=2)["id"]
        for jid in (blocker["id"], lo, hi, mid):
            assert wait_until(client, jid, {"ok"})["state"] == "ok"
        assert _dispatch_order(handle.server, {lo, hi, mid}) == [hi, mid, lo]


def test_quota_limits_concurrent_slots_per_tenant(tmp_path):
    with serve(tmp_path, deploy="local:4", default_quota=1,
               store=False) as handle:
        client = handle.client()
        a1 = client.submit(Job.kernel(ROCKET1, **MM_SLOW), tenant="a")
        a2 = client.submit(Job.kernel(ROCKET1, **MM_SLOW), tenant="a")
        b1 = client.submit(Job.kernel(ROCKET1, **MM_SLOW), tenant="b")
        wait_until(client, a1["id"], {"running"}, timeout_s=30)
        wait_until(client, b1["id"], {"running"}, timeout_s=30)
        sched = client.status()["scheduler"]["tenants"]
        # both tenants run concurrently, but a's second job is held back
        assert sched["a"] == {"queued": 1, "running": 1, "quota": 1}
        assert sched["b"]["running"] == 1
        for doc in (a1, a2, b1):
            wait_until(client, doc["id"], {"ok"})


# -------------------------------------------------------------- shutdown

def test_drain_shutdown_finishes_queued_work(tmp_path):
    handle = serve(tmp_path)
    client = handle.client()
    ids = [client.submit(kernel_job(seed=20 + i))["id"] for i in range(3)]
    client.shutdown(drain=True)
    with pytest.raises(ServeError, match="shutting down"):
        client.submit(kernel_job(seed=99))
    handle.thread.join(timeout=60)
    assert not handle.thread.is_alive()
    import json
    manifest = json.loads(
        (handle.server.spool / "manifest.json").read_text())
    states = {j["id"]: j["state"] for j in manifest["jobs"]}
    assert all(states[jid] == "ok" for jid in ids)


def test_manifest_is_coalesced_and_flushed_on_shutdown(tmp_path):
    """Terminal transitions share manifest rewrites (one per quiet
    window, not one per job); a draining shutdown still leaves a manifest
    that lists every job in its final state."""
    import json
    handle = serve(tmp_path)
    server = handle.server
    writes = []
    write_manifest = server._write_manifest

    def counting_write():
        writes.append(1)
        write_manifest()

    server._write_manifest = counting_write
    client = handle.client()
    first = client.submit(kernel_job(seed=40))
    wait_until(client, first["id"], {"ok"})
    writes0 = len(writes)
    n = 40
    hits = [client.submit(kernel_job(seed=40)) for _ in range(n)]
    assert all(h["state"] == "ok" and h["from_cache"] for h in hits)
    # back-to-back store hits: far fewer rewrites than terminal jobs
    assert len(writes) - writes0 <= n // 4
    handle.stop(drain=True)
    manifest = json.loads(
        (handle.server.spool / "manifest.json").read_text())
    states = {j["id"]: j["state"] for j in manifest["jobs"]}
    assert len(states) == n + 1
    assert set(states.values()) == {"ok"}


def test_hard_shutdown_preempts_running_work(tmp_path):
    handle = serve(tmp_path)
    client = handle.client()
    doc = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
    wait_until(client, doc["id"], {"running"}, timeout_s=30)
    client.shutdown(drain=False)
    handle.thread.join(timeout=30)
    assert not handle.thread.is_alive()
    final = handle.server.jobs[doc["id"]]
    assert final.state in {"preempted", "ok"}


# ------------------------------------------------------------ worker pool

def _spawned(client):
    return client.status()["workers_spawned"]


def _worker_pids():
    """The server runs in this process, so its pool workers are ours."""
    return sorted(p.pid for p in multiprocessing.active_children())


def test_jobs_share_one_worker_per_slot(tmp_path):
    with serve(tmp_path, deploy="local:2") as handle:
        client = handle.client()
        ids = [client.submit(kernel_job(seed=50 + i), tenant="ab"[i % 2])["id"]
               for i in range(10)]
        assert all(wait_until(client, jid, {"ok", "failed"})["state"] == "ok"
                   for jid in ids)
        assert _spawned(client) == 2
        assert len(_worker_pids()) == 2          # idle, waiting for more
    assert _worker_pids() == []                  # none outlives a drain


def test_server_that_only_serves_hits_forks_nothing(tmp_path):
    job = kernel_job(seed=60)
    with serve(tmp_path, store=tmp_path / "store") as handle:
        client = handle.client()
        client.ping()
        assert _spawned(client) == 0             # started, pinged: no fork
        wait_until(client, client.submit(job)["id"], {"ok"})
        assert _spawned(client) == 1
    with FarmServer.start_background(tmp_path / "spool2", deploy="local:1",
                                     store=tmp_path / "store") as handle:
        client = handle.client()
        assert client.submit(job)["from_cache"] is True
        assert _spawned(client) == 0


def test_cancel_retires_the_worker_and_the_slot_serves_on(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
        running = wait_until(client, doc["id"], {"running"}, timeout_s=30)
        first_pid = handle.server.jobs[running["id"]].pid
        assert _worker_pids() == [first_pid]
        client.cancel(doc["id"])
        wait_until(client, doc["id"], {"cancelled"}, timeout_s=30)
        job = kernel_job(seed=61)
        done = wait_until(client, client.submit(job)["id"], {"ok", "failed"})
        assert done["state"] == "ok" and done["attempts"] == 1
        assert done["payload"] == execute_job(job)
        assert _spawned(client) == 2
        assert first_pid not in _worker_pids()


def test_preempt_retires_the_worker_and_resume_forks_one(tmp_path):
    job = Job.kernel(ROCKET1, **MM_SLOW)
    with serve(tmp_path, checkpoint_every=2) as handle:
        client = handle.client()
        doc = client.submit(job)
        wait_until(client, doc["id"], {"running"}, timeout_s=30)
        time.sleep(0.3)
        client.cancel(doc["id"], preempt=True)
        wait_until(client, doc["id"], {"preempted"}, timeout_s=30)
        assert _worker_pids() == []
        done = wait_until(client, client.resume(doc["id"])["id"], {"ok"})
        assert done["payload"] == execute_job(job)
        assert _spawned(client) == 2


def _socket_inodes(pid):
    held = set()
    for fd in pathlib.Path(f"/proc/{pid}/fd").iterdir():
        try:
            link = os.readlink(fd)
        except OSError:
            continue                # closed while we listed
        if link.startswith("socket:"):
            held.add(link)
    return held


@pytest.mark.skipif(not pathlib.Path("/proc/self/fd").exists(),
                    reason="needs /proc to list a worker's fds")
def test_workers_keep_only_their_own_pipe_end(tmp_path):
    """No worker holds the listener, a client connection, or the parent's
    end of any pipe, its own or a sibling's: only its own end."""
    with serve(tmp_path, deploy="local:2") as handle:
        client = handle.client()
        with socket.socket(socket.AF_UNIX) as idle:
            idle.connect(handle.endpoint)   # an open client at fork time
            ids = [client.submit(Job.kernel(ROCKET1, **MM_SLOW), tenant=t)["id"]
                   for t in "ab"]
            for jid in ids:
                wait_until(client, jid, {"running"}, timeout_s=30)
            assert _spawned(client) == 2
            ours = _socket_inodes(os.getpid())
            for pid in _worker_pids():
                # "running" is set on the fork's parent side: give the
                # worker until its start-up is surely over
                deadline = time.monotonic() + 10.0
                while True:
                    held = _socket_inodes(pid)
                    if (len(held) == 1 and not held & ours
                            or time.monotonic() > deadline):
                        break
                    time.sleep(0.01)
                assert len(held) == 1 and not held & ours, (pid, held)
        for jid in ids:
            client.cancel(jid)


def test_migration_retires_workers_of_the_quarantined_host(tmp_path):
    """Stall victim and migrated job each lose their worker on host a;
    both finish on host b's one worker, which also ran the filler."""
    from repro.reliability import FaultPlan
    plan = FaultPlan.parse("host-stall host=a count=1")
    victim = kernel_job(seed=62, timeout_s=0.3)
    filler = kernel_job(seed=63)
    mover = Job.kernel(ROCKET1, "MM", scale=0.5, quantum=256)
    with serve(tmp_path, deploy="hosts:a=2,b=1", fault_plan=plan,
               suspect_after=1, quarantine_after=1, probe_interval=1000,
               checkpoint_every=2, max_retries=1) as handle:
        client = handle.client()
        ids = [client.submit(j)["id"] for j in (victim, filler, mover)]
        done = [wait_until(client, jid, {"ok", "failed"}) for jid in ids]
        assert [d["state"] for d in done] == ["ok"] * 3
        assert [d["host"] for d in done] == ["b"] * 3
        assert done[2]["migrations"] == 1
        assert done[2]["payload"] == execute_job(mover)
        assert _spawned(client) == 3             # a, a, b — and no more
        assert len(_worker_pids()) == 1


# ------------------------------------------------------- breaker thresholds

@pytest.mark.parametrize("kw, message", [
    (dict(suspect_after=0), "suspect_after must be >= 1, got 0"),
    (dict(suspect_after=2, quarantine_after=1),
     r"quarantine_after \(1\) must be >= suspect_after \(2\)"),
    (dict(probe_interval=0), "probe_interval must be >= 1, got 0"),
])
def test_breaker_thresholds_checked_as_the_deploy_manager_does(tmp_path, kw,
                                                               message):
    """The server refuses the values a deploy manager refuses, with the
    same message, instead of clamping them."""
    from repro.farm.deploy import LocalDeployManager
    with pytest.raises(ValueError, match=message):
        LocalDeployManager(1, **kw)
    with pytest.raises(ValueError, match=message):
        FarmServer(tmp_path / "spool", store=False, **kw)


@pytest.mark.parametrize("store", [["--no-store"], []])
def test_serve_cli_refuses_a_bad_breaker_threshold(tmp_path, store):
    """``repro serve`` exits non-zero with the message before it makes
    the spool or its store (a clamped value would start serving
    instead)."""
    import subprocess
    import sys
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve()
                                           .parents[2] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--spool",
         str(tmp_path / "spool"), *store, "--suspect-after", "0"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert "suspect_after must be >= 1, got 0" in proc.stderr
    assert not (tmp_path / "spool").exists()
