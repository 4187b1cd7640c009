"""`repro._atomic.atomic_write`, the one temp-file-and-rename write, and
two writers that used to get it wrong."""

import pytest

from repro._atomic import atomic_write
from repro.accel import memo
from repro.farm.cache import cache_key
from repro.farm.job import ExecContext, Job, execute_job
from repro.serve import FarmServer
from repro.serve.queue import JobRecord
from repro.soc import ROCKET1, ROCKET2


def test_replaces_the_file_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "f.json"
    atomic_write(path, "old")
    atomic_write(path, b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


def test_failed_rename_removes_the_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()        # os.replace cannot overwrite it
    with pytest.raises(OSError):
        atomic_write(tmp_path / "taken", "x")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_sweep_checkpoint_does_not_write_a_fixed_temp_name(tmp_path):
    """Two attempts of one sweep share ``<key>.ckpt``; a fixed
    ``<key>.tmp`` would be renamed away under the other one."""
    job = Job.sweep([ROCKET1, ROCKET2], "EI", scale=0.05)
    ref = execute_job(job)
    memo.clear_caches()
    (tmp_path / f"{cache_key(job)}.tmp").mkdir()
    ctx = ExecContext(checkpoint_dir=tmp_path, checkpoint_every=1)
    assert execute_job(job, ctx=ctx) == ref
    assert ctx.meta["checkpoints"] == 2


def test_unserialisable_result_leaves_no_temp_file(tmp_path):
    """A served result is written once, as the payload of the journal's
    ``ok`` record: one that cannot be encoded leaves no partial record
    and no temp file behind."""
    spool = tmp_path / "spool"
    server = FarmServer(spool, store=False)
    try:
        rec = JobRecord(id="j0001", tenant="t", priority=0,
                        job=Job.selftest("ok"), seq=1)
        before = server.journal.path.read_bytes()
        with pytest.raises(TypeError):
            server._complete(rec, {"value": object()})
        assert server.journal.path.read_bytes() == before
        assert sorted(p.name for p in spool.rglob("*")) == [
            "ckpt", "journal.jsonl", "streams"]
    finally:
        server.journal.close()
