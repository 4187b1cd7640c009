"""A served result is written once: the journal's ``ok`` record.

The ``ok`` state record carries the payload, so the journal alone
restores finished work after a crash; the shared store stays a
cross-run cache.  A torn ``ok`` line or a schema-1 ``ok`` record
without a payload re-queues its job.
"""

import json
import shutil

from repro.farm import Job, cache_key, execute_job
from repro.serve import FarmServer, job_to_wire, replay_journal
from repro.soc import ROCKET1


def kernel_job(seed):
    return Job.kernel(ROCKET1, "EI", scale=0.05, seed=seed)


def serve(spool, **kw):
    kw.setdefault("deploy", "local:1")
    kw.setdefault("backoff_s", 0.01)
    return FarmServer.start_background(spool, **kw)


def wait_ok(client, jid):
    done = client.wait(jid, timeout_s=60.0, poll_s=0.01)
    assert done["state"] == "ok", done
    return done


def spool_files(spool):
    """Every file in the spool but the streams and the manifest (a
    coalesced view rewritten on its own timer)."""
    return {str(p.relative_to(spool)) for p in spool.rglob("*")
            if p.is_file() and p.parts[len(spool.parts)] != "streams"
            and p.name != "manifest.json"}


def test_finished_job_is_restored_from_the_journal_alone(tmp_path):
    spool = tmp_path / "spool"
    job = kernel_job(seed=21)
    handle = serve(spool)
    client = handle.client()
    done = wait_ok(client, client.submit(job)["id"])
    handle.crash()
    # only the journal and the streams survive: no store, no checkpoint
    for path in spool.iterdir():
        if path.name not in ("journal.jsonl", "streams"):
            (shutil.rmtree if path.is_dir() else path.unlink)(path)

    with serve(spool, recover=True) as handle:
        restored = handle.client().status(done["id"], payload=True)
    assert restored["state"] == "ok"
    assert restored["attempts"] == done["attempts"] == 1
    assert restored["payload"] == execute_job(job)


def test_served_miss_writes_one_payload_file_and_a_hit_none(tmp_path):
    spool = tmp_path / "spool"
    job = kernel_job(seed=22)
    with serve(spool) as handle:
        client = handle.client()
        wait_ok(client, client.submit(kernel_job(seed=23))["id"])
        before = spool_files(spool)
        miss = wait_ok(client, client.submit(job)["id"])
        after_miss = spool_files(spool)
        hit = wait_ok(client, client.submit(job)["id"])
        after_hit = spool_files(spool)
    entry = handle.server.store.path(cache_key(job)).relative_to(spool)
    assert not miss["from_cache"] and hit["from_cache"]
    assert after_miss - before == {str(entry)}
    assert after_hit == after_miss


def test_torn_ok_line_reruns_the_job_to_an_identical_payload(tmp_path):
    spool = tmp_path / "spool"
    job = kernel_job(seed=24)
    handle = serve(spool, store=False)
    client = handle.client()
    jid = wait_ok(client, client.submit(job)["id"])["id"]
    handle.crash()
    journal = spool / "journal.jsonl"
    raw = journal.read_bytes()
    ok_line = raw.rstrip(b"\n").rsplit(b"\n", 1)[1]
    assert json.loads(ok_line)["state"] == "ok"
    torn = ok_line[:len(ok_line) // 2]
    journal.write_bytes(raw[:len(raw) - len(ok_line) - 1] + torn)

    with serve(spool, store=False, recover=True) as handle:
        done = wait_ok(handle.client(), jid)
    assert done["recovered"] is True and done["attempts"] == 2
    assert done["payload"] == execute_job(job)
    # the records appended after the torn line all parse
    bad = []
    for line in journal.read_bytes().splitlines():
        try:
            json.loads(line)
        except ValueError:
            bad.append(line)
    assert bad == [torn]
    (summary,) = replay_journal(journal)
    assert summary["state"] == "ok" and summary["payload"] == done["payload"]


def test_schema1_ok_record_without_payload_is_requeued(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    job = kernel_job(seed=25)
    records = [
        {"t": "meta", "schema": 1},
        {"t": "submit", "id": "j0001", "seq": 1, "tenant": "default",
         "priority": 0, "job": job_to_wire(job), "instrument": None},
        {"t": "state", "id": "j0001", "state": "running", "attempts": 1,
         "host": "local", "error": None, "resumed": False,
         "from_cache": False, "pid": 1},
        {"t": "state", "id": "j0001", "state": "ok", "attempts": 1,
         "host": "local", "error": None, "resumed": False,
         "from_cache": False},
    ]
    (spool / "journal.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    with serve(spool, store=False, recover=True) as handle:
        done = wait_ok(handle.client(), "j0001")
    assert done["recovered"] is True and done["attempts"] == 2
    assert done["payload"] == execute_job(job)
