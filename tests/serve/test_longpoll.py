"""Completion pushed, not polled: ``status`` with ``wait_s``/``until``.

A parked reply is woken by the job's state change (``_set_state``), so
``ServeClient.wait`` costs one or two requests however long the job
runs; ``poll_s`` only paces a client against a server that answers
early.  The journal those transitions write must not have moved.
"""

import gc
import json
import logging
import re
import socketserver
import threading
import time

import pytest

from repro.farm import Job, cache_key
from repro.instrument import InstrumentSpec
from repro.serve import FarmServer, ServeClient, ServeError, job_to_wire
from repro.soc import ROCKET1

EI = dict(name="EI", scale=0.05)
MM_SLOW = dict(name="MM", scale=0.3, quantum=256)


def kernel_job(**kw):
    kw = {**EI, **kw}
    return Job.kernel(ROCKET1, kw.pop("name"), **kw)


def slow_job():
    return Job.kernel(ROCKET1, **MM_SLOW)


def serve(tmp_path, **kw):
    kw.setdefault("deploy", "local:1")
    kw.setdefault("backoff_s", 0.01)
    return FarmServer.start_background(tmp_path / "spool", **kw)


def requests_made(handle):
    return handle.server._req_count


# ----------------------------------------------------------- woken, not paced

def test_wait_on_a_slow_job_is_woken_not_paced(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        submitted = time.monotonic()
        doc = client.submit(slow_job())
        before = requests_made(handle)
        done = client.wait(doc["id"], timeout_s=60, poll_s=5)
        waited = time.monotonic() - submitted
        assert done["state"] == "ok" and done["payload"]["cycles"] > 0
        assert requests_made(handle) - before <= 2
        # the job started at submit: a paced client would come back a
        # multiple of poll_s later, a woken one as the job finishes
        assert waited < done["elapsed_s"] + 2.0


def test_until_running_and_preempted_wake_on_those_transitions(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        blocker = client.submit(slow_job())
        queued = client.submit(slow_job(), tenant="b")
        assert queued["state"] == "queued"
        before = requests_made(handle)
        running = client.wait(queued["id"], timeout_s=60, poll_s=30,
                              until={"running"})
        assert running["state"] == "running"
        assert requests_made(handle) - before <= 2
        assert client.status(blocker["id"])["state"] == "ok"

        client.cancel(queued["id"], preempt=True)
        before, asked = requests_made(handle), time.monotonic()
        parked = client.wait(queued["id"], timeout_s=60, poll_s=30,
                             until={"preempted"})
        assert parked["state"] == "preempted"
        assert requests_made(handle) - before <= 2
        assert time.monotonic() - asked < 10.0
        client.cancel(queued["id"])


def test_terminal_job_answers_at_once_whatever_until_says(tmp_path):
    """Nothing will ever wake a waiter on a finished job."""
    with serve(tmp_path) as handle:
        client = handle.client()
        done = client.wait(client.submit(kernel_job(seed=1))["id"])
        asked = time.monotonic()
        doc = client._request({"op": "status", "id": done["id"],
                               "wait_s": 20, "until": ["running"]})
        assert doc["state"] == "ok"
        assert time.monotonic() - asked < 5.0


def test_bad_long_poll_requests_error_at_once(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(slow_job())
        asked = time.monotonic()
        with pytest.raises(ServeError, match="unknown job id"):
            client._request({"op": "status", "id": "j9999", "wait_s": 20})
        with pytest.raises(ServeError, match="'until' must be a list"):
            client._request({"op": "status", "id": doc["id"], "wait_s": 20,
                             "until": "ok"})
        with pytest.raises(ServeError, match="bad request"):
            client._request({"op": "status", "id": doc["id"],
                             "wait_s": "soon"})
        assert time.monotonic() - asked < 5.0
        # no id, no parking: the whole-server view comes straight back
        assert "scheduler" in client._request({"op": "status", "wait_s": 20})
        assert time.monotonic() - asked < 5.0
        client.cancel(doc["id"])


def test_wait_s_is_capped_server_side(tmp_path, monkeypatch):
    from repro.serve import server as server_mod
    monkeypatch.setattr(server_mod, "MAX_WAIT_S", 0.2)
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(Job.selftest("hang", sleep_s=30))
        asked = time.monotonic()
        got = client._request({"op": "status", "id": doc["id"],
                               "wait_s": 3600})
        assert got["state"] == "running"
        assert 0.15 < time.monotonic() - asked < 5.0
        client.cancel(doc["id"])


def test_wait_s_stays_inside_the_socket_timeout_and_timeout_still_raises(
        tmp_path):
    with serve(tmp_path) as handle:
        client = ServeClient(handle.endpoint, timeout_s=0.6)
        doc = client.submit(Job.selftest("hang", sleep_s=30))
        sent = []
        request = client._request

        def recording(req):
            sent.append(req)
            return request(req)

        client._request = recording
        started = time.monotonic()
        # a socket timeout would surface as "cannot reach server"
        with pytest.raises(ServeError, match="still running after 1.5s"):
            client.wait(doc["id"], timeout_s=1.5, poll_s=5)
        assert 1.5 <= time.monotonic() - started < 5.0
        assert len(sent) >= 5
        assert all(0 <= req["wait_s"] <= 0.3 for req in sent)
        assert all(req["until"] == ["cancelled", "failed", "ok"]
                   for req in sent)
        handle.client().cancel(doc["id"])


# ------------------------------------------------- released when the loop ends

def _parked_waiter(handle, job_id):
    """``client.wait`` on a thread; returns once the server holds it."""
    outcome = {}

    def wait():
        try:
            outcome["doc"] = handle.client().wait(job_id, timeout_s=30,
                                                  poll_s=0.05)
        except ServeError as exc:
            outcome["error"] = str(exc)

    thread = threading.Thread(target=wait, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not handle.server._waiters.get(job_id):
        assert time.monotonic() < deadline, "waiter never parked"
        time.sleep(0.01)
    return thread, outcome


def _assert_released(handle, thread, outcome, caplog):
    thread.join(timeout=20)
    assert not thread.is_alive(), "waiter still parked after the server went"
    handle.thread.join(timeout=20)
    assert not handle.thread.is_alive()
    assert not handle.server._waiters
    # the job never got to a terminal state: the client was answered (or
    # cut off), asked again, and found nobody home
    assert "cannot reach server" in outcome["error"], outcome
    gc.collect()
    assert "Task was destroyed" not in caplog.text
    assert "exception" not in caplog.text.lower()


def test_waiter_parked_across_hard_shutdown_is_released(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="asyncio")
    handle = serve(tmp_path)
    doc = handle.client().submit(Job.selftest("hang", sleep_s=30))
    thread, outcome = _parked_waiter(handle, doc["id"])
    handle.client().shutdown(drain=False)
    _assert_released(handle, thread, outcome, caplog)
    assert handle.server.jobs[doc["id"]].state == "preempted"


def test_waiter_parked_across_crash_is_released(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="asyncio")
    handle = serve(tmp_path)
    doc = handle.client().submit(Job.selftest("hang", sleep_s=30))
    thread, outcome = _parked_waiter(handle, doc["id"])
    handle.crash()
    _assert_released(handle, thread, outcome, caplog)


def test_waiter_parked_across_drain_shutdown_is_released(tmp_path, caplog):
    """A drain finishes every job it can; a preempted one stays where it
    is, and so would a reply parked on it."""
    caplog.set_level(logging.DEBUG, logger="asyncio")
    handle = serve(tmp_path)
    client = handle.client()
    doc = client.submit(slow_job())
    client.wait(doc["id"], timeout_s=30, until={"running"})
    client.cancel(doc["id"], preempt=True)
    client.wait(doc["id"], timeout_s=30, until={"preempted"})
    thread, outcome = _parked_waiter(handle, doc["id"])
    client.shutdown(drain=True)
    _assert_released(handle, thread, outcome, caplog)


def test_vanished_client_costs_nothing_and_logs_nothing(tmp_path, caplog):
    import socket
    caplog.set_level(logging.DEBUG, logger="asyncio")
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(slow_job())
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(handle.endpoint)
        sock.sendall(json.dumps({"op": "status", "id": doc["id"],
                                 "payload": True, "wait_s": 30}).encode()
                     + b"\n")
        while not handle.server._waiters.get(doc["id"]):
            time.sleep(0.01)
        sock.close()
        assert client.wait(doc["id"], timeout_s=60)["state"] == "ok"
        deadline = time.monotonic() + 10.0
        while handle.server._waiters:       # the other woken reply's turn
            assert time.monotonic() < deadline
            time.sleep(0.01)
    assert "exception" not in caplog.text.lower()


# --------------------------------------------------- a server without the fields

class _OldServer(socketserver.ThreadingUnixStreamServer):
    """Answers ``status`` the way a server that predates ``wait_s`` and
    ``until`` does: at once, whatever the state."""

    daemon_threads = True

    def __init__(self, path, running_for):
        super().__init__(str(path), _OldHandler)
        self.requests_seen = []
        self.running_for = running_for


class _OldHandler(socketserver.StreamRequestHandler):
    def handle(self):
        req = json.loads(self.rfile.readline())
        seen = self.server.requests_seen
        seen.append(req)
        state = "running" if len(seen) <= self.server.running_for else "ok"
        self.wfile.write(json.dumps(
            {"ok": True, "id": req["id"], "state": state}).encode() + b"\n")


def test_old_server_is_polled_at_poll_s(tmp_path):
    with _OldServer(tmp_path / "old.sock", running_for=4) as server:
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            started = time.monotonic()
            doc = ServeClient(str(tmp_path / "old.sock")).wait(
                "j0001", timeout_s=30, poll_s=0.05)
            elapsed = time.monotonic() - started
        finally:
            server.shutdown()
    assert doc["state"] == "ok"
    assert len(server.requests_seen) == 5
    assert 4 * 0.05 <= elapsed < 5.0


# ------------------------------------------------ filesystem work per status

def test_plain_status_never_looks_for_instrument_streams(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        done = client.wait(client.submit(kernel_job(seed=2))["id"])
        looked = []
        instrument_dir = handle.server.instrument_dir

        def recording(job_id):
            looked.append(job_id)
            return instrument_dir(job_id)

        handle.server.instrument_dir = recording
        doc = client.status(done["id"])
        assert "instrument_streams" not in doc
        assert looked == []
        assert not instrument_dir(done["id"]).exists()


def test_instrumented_status_lists_streams_before_and_after_recovery(
        tmp_path):
    spec = InstrumentSpec(counter_interval=5000)
    handle = serve(tmp_path)
    client = handle.client()
    done = client.wait(client.submit(kernel_job(seed=3),
                                     instrument=spec)["id"])
    assert done["state"] == "ok"
    streams = client.status(done["id"])["instrument_streams"]
    assert len(streams) == 1 and streams[0].endswith(".jsonl")
    assert f"streams/{done['id']}/" in streams[0]
    handle.crash()
    with serve(tmp_path, recover=True) as handle:
        doc = handle.client().status(done["id"])
        assert doc["state"] == "ok" and doc["recovered"] is False
        assert doc["instrument_streams"] == streams


# ------------------------------------------------------------- journal bytes

def test_journal_bytes_over_run_cancel_preempt_resume(tmp_path):
    """``_set_state`` replaced a dozen assign-then-journal pairs; the
    records, their fields and their order are an on-disk format."""
    slow, quick = slow_job(), kernel_job(seed=4)
    with serve(tmp_path, store=False, checkpoint_every=2) as handle:
        client = handle.client()
        a = client.submit(slow, tenant="alice")["id"]
        b = client.submit(quick, priority=3)["id"]
        assert client.cancel(b)["state"] == "cancelled"        # queued
        client.wait(a, timeout_s=30, until={"running"})
        ckpt = handle.server.checkpoint_dir / f"{cache_key(slow)}.ckpt"
        deadline = time.monotonic() + 30.0
        while not ckpt.exists():            # so that the resume restores
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.cancel(a, preempt=True)
        client.wait(a, timeout_s=30, until={"preempted"})
        client.resume(a)
        assert client.wait(a, timeout_s=60)["state"] == "ok"
        c = client.submit(quick)["id"]
        assert client.wait(c, timeout_s=60)["state"] == "ok"
        d = client.submit(slow)["id"]
        client.wait(d, timeout_s=30, until={"running"})
        client.cancel(d, preempt=True)
        client.wait(d, timeout_s=30, until={"preempted"})
        assert client.cancel(d)["state"] == "cancelled"        # preempted
        journal = handle.server.journal.path
    assert (a, b, c, d) == ("j0001", "j0002", "j0003", "j0004")

    def submit(jid, seq, job, tenant="default", priority=0):
        return {"t": "submit", "id": jid, "seq": seq, "tenant": tenant,
                "priority": priority, "job": job_to_wire(job),
                "instrument": None}

    def state(jid, state, attempts, host, resumed=False, **extra):
        return {"t": "state", "id": jid, "state": state,
                "attempts": attempts, "host": host, "error": None,
                "resumed": resumed, "from_cache": False, **extra}

    want = [
        {"t": "meta", "schema": 1},
        submit(a, 1, slow, tenant="alice"),
        state(a, "running", 1, "local", pid="PID"),
        submit(b, 2, quick, priority=3),
        state(b, "cancelled", 0, None),
        state(a, "preempted", 1, "local"),
        state(a, "queued", 1, "local"),
        state(a, "running", 2, "local", pid="PID"),
        state(a, "ok", 2, "local", resumed=True),
        submit(c, 3, quick),
        state(c, "running", 1, "local", pid="PID"),
        state(c, "ok", 1, "local"),
        submit(d, 4, slow),
        state(d, "running", 1, "local", pid="PID"),
        state(d, "preempted", 1, "local"),
        state(d, "cancelled", 1, "local"),
    ]
    text = re.sub(r'"pid": \d+', '"pid": "PID"', journal.read_text())
    assert text == "".join(json.dumps(doc, sort_keys=True) + "\n"
                           for doc in want)
