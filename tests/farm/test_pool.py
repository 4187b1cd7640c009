"""WorkerPool tests: warm workers are counted, retired when they must be,
invisible in payloads, and never outlive their parent."""

import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time
from multiprocessing import connection

import pytest

import repro
from repro.accel import memo
from repro.check.progen import generate_program
from repro.farm import Job, ResultCache, RunFarm, execute_job
from repro.farm.job import ExecContext
from repro.farm.pool import ORPHAN_POLL_S, WorkerPool
from repro.instrument import InstrumentSpec
from repro.reliability import FaultPlan
from repro.reliability.faults import Fault, FaultInjected
from repro.soc import BANANA_PI_HW, ROCKET1, ROCKET2

REMOTE = dict(in_process=False)


def run_on_pool(tasks, slots=2):
    """Drive ``(job, ExecContext)`` *tasks* through a *slots*-worker pool
    in order; returns (reports by task position, workers spawned)."""
    pool = WorkerPool()
    reports = [None] * len(tasks)
    busy = {}
    todo = list(enumerate(tasks))
    try:
        while todo or busy:
            while todo and len(busy) < slots:
                i, (job, ctx) = todo.pop(0)
                worker = pool.submit("local", job, 1, ctx)
                busy[worker.conn] = (i, worker)
            for conn in connection.wait(list(busy), timeout=120.0):
                i, worker = busy.pop(conn)
                reports[i] = worker.result()
                pool.release(worker)
    finally:
        pool.close()
    return reports, pool.spawned


# -- worker count ------------------------------------------------------------


@pytest.mark.parametrize("workers", [2, 3])
def test_jobs_share_one_worker_per_slot(workers):
    jobs = ([Job.selftest("ok", value=i) for i in range(12)]
            + [Job.kernel(ROCKET1, k, scale=0.05) for k in ("EI", "MD")])
    farm = RunFarm(workers=workers)
    results = farm.run(jobs)
    assert all(r.ok for r in results)
    assert farm.stats.workers_spawned == workers
    assert farm.stats.to_snapshot().flat()["farm.workers_spawned"] == workers


def test_fully_cached_run_never_forks(tmp_path):
    jobs = [Job.kernel(ROCKET1, k, scale=0.05) for k in ("EI", "MD", "CCh")]
    cache = ResultCache(tmp_path)
    assert RunFarm(workers=2, cache=cache).stats.workers_spawned == 0
    cold = RunFarm(workers=2, cache=cache)
    cold.run(jobs)
    assert cold.stats.workers_spawned == 2
    warm = RunFarm(workers=2, cache=cache)
    assert all(r.from_cache for r in warm.run(jobs))
    assert warm.stats.workers_spawned == 0


# -- retirement: one extra spawn, and the slot keeps working ------------------


def _busy_jobs(n=6, **kw):
    """Jobs long enough that both slots stay wanted while one worker is
    being retired (a selftest ``hang`` sleeps, then succeeds)."""
    return [Job.selftest("hang", sleep_s=0.15, value=i, **kw)
            for i in range(n)]


def test_injected_kill_costs_one_spawn():
    farm = RunFarm(workers=2, backoff_s=0.0,
                   fault_plan=FaultPlan.parse("kill job=1 attempt=1"))
    results = farm.run(_busy_jobs())
    assert all(r.ok for r in results)
    assert results[1].attempts == 2
    assert farm.stats.crashes == 1 and farm.stats.retries == 1
    assert farm.stats.workers_spawned == 3


def test_injected_hang_times_out_and_costs_one_spawn():
    farm = RunFarm(workers=2, backoff_s=0.0, timeout_s=2.0,
                   fault_plan=FaultPlan.parse("hang job=0 attempt=1 sleep=60"))
    jobs = _busy_jobs()
    jobs[0] = Job.selftest("hang", sleep_s=0.15, timeout_s=0.4)
    results = farm.run(jobs)
    assert all(r.ok for r in results)
    assert results[0].attempts == 2
    assert farm.stats.timeouts == 1
    assert farm.stats.workers_spawned == 3


def test_raising_job_keeps_its_worker():
    """A workload exception is the job's outcome, not the worker's: the
    worker reports it and serves the retry and the rest of the list."""
    jobs = [Job.selftest("raise"), *_busy_jobs(5)]
    farm = RunFarm(workers=2, max_retries=1, backoff_s=0.0)
    results = farm.run(jobs)
    assert [r.status for r in results] == ["failed"] + ["ok"] * 5
    assert "injected failure" in results[0].error
    assert farm.stats.errors == 2 and farm.stats.crashes == 0
    assert farm.stats.workers_spawned == 2


def test_interrupt_in_a_job_retires_the_worker_after_its_report():
    jobs = [Job.selftest("interrupt"), *_busy_jobs(5)]
    farm = RunFarm(workers=2, max_retries=0, backoff_s=0.0)
    results = farm.run(jobs)
    assert results[0].status == "failed"
    assert "KeyboardInterrupt" in results[0].error      # reported, not EOF
    assert all(r.ok for r in results[1:])
    assert farm.stats.errors == 1 and farm.stats.crashes == 0
    assert farm.stats.workers_spawned == 3


def test_dead_idle_worker_is_replaced_not_charged():
    pool = WorkerPool()
    try:
        first = pool.submit("local", Job.selftest("ok"), 1,
                            ExecContext(**REMOTE))
        assert first.conn.poll(30.0) and first.result()[0] == "ok"
        pool.release(first)
        os.kill(first.pid, signal.SIGKILL)      # dies idle, behind our back
        first.proc.join(timeout=10.0)
        second = pool.submit("local", Job.selftest("ok", value=7), 1,
                             ExecContext(**REMOTE))
        assert second.pid != first.pid
        assert second.conn.poll(30.0)
        status, payload, _ = second.result()
        assert status == "ok" and payload["value"] == 7
        assert pool.spawned == 2
    finally:
        pool.close()
    assert not second.proc.is_alive()


# -- warm workers never show in payloads -------------------------------------


def _mixed_tasks(tmp_path):
    """48 (job, ExecContext) pairs covering every job kind, an
    instrumented kernel, and a lockstep job that resumes from a
    checkpoint left by a killed earlier attempt."""
    configs = (BANANA_PI_HW, ROCKET1, ROCKET2)
    kernels = ("EI", "MD", "CCh", "MM", "Cca", "DP1f", "STc", "ED1")
    tasks = [(Job.kernel(cfg, k, scale=0.05, seed=s), ExecContext(**REMOTE))
             for s, cfg in enumerate(configs) for k in kernels]
    tasks += [(Job.kernel(ROCKET1, "EI", scale=0.05, seed=s),
               ExecContext(**REMOTE)) for s in range(10, 20)]
    tasks += [(Job.sweep(configs, k, scale=0.05), ExecContext(**REMOTE))
              for k in ("EI", "MM", "CCh")]
    tasks += [(Job.npb(ROCKET1, b, ranks=r, npb_class="S"),
               ExecContext(**REMOTE))
              for b, r in (("EP", 1), ("MG", 2), ("IS", 1))]
    for seed in (1, 2, 3, 4, 5, 6):
        prog = generate_program(seed)
        tasks.append((Job.checkprog(ROCKET2, f"prog-{seed}", prog.source,
                                    base=prog.base), ExecContext(**REMOTE)))
    spec = InstrumentSpec(counter_interval=2000).to_dict()
    tasks.append((Job.kernel(ROCKET1, "MD", scale=0.05, seed=40),
                  ExecContext(instrument_spec=spec,
                              instrument_dir=tmp_path / "streams", **REMOTE)))
    lockstep = Job.kernel(ROCKET1, "MM", scale=0.05, quantum=512, chunk=256)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(FaultInjected):
        execute_job(lockstep, ctx=ExecContext(
            fault=Fault("kill", (("after", 4),)), checkpoint_dir=ckpt,
            checkpoint_every=2))
    assert list(ckpt.glob("*.ckpt"))
    tasks.append((lockstep, ExecContext(checkpoint_dir=ckpt,
                                        checkpoint_every=2, **REMOTE)))
    assert len(tasks) == 48
    return tasks, ckpt


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_mixed_jobs_on_warm_workers_match_serial(tmp_path, order):
    tasks, ckpt = _mixed_tasks(tmp_path)
    serial = []
    for job, _ in tasks:
        memo.clear_caches()
        serial.append(execute_job(job))
    if order == "reversed":
        tasks, serial = tasks[::-1], serial[::-1]
    reports, spawned = run_on_pool(tasks)
    assert spawned == 2
    for (job, _), report, want in zip(tasks, reports, serial):
        status, payload, meta = report
        assert status == "ok", (job.label, payload)
        assert payload == want, job.label
        if job.param("quantum") is not None:
            assert meta.get("resumed") is True
    assert not list(ckpt.glob("*.ckpt"))
    assert list((tmp_path / "streams").glob("*.jsonl"))


def test_everything_sent_to_a_worker_pickles(tmp_path):
    """Job arguments cross a pipe now, under ``fork`` too."""
    tasks, _ = _mixed_tasks(tmp_path)
    tasks.append((Job.selftest("flaky", fail_times=2, value=9),
                  ExecContext(fault=Fault("hang", (("sleep", 1.5),)),
                              checkpoint_dir=tmp_path / "ckpt",
                              checkpoint_every=3, in_process=False,
                              instrument_spec=InstrumentSpec().to_dict(),
                              instrument_dir=tmp_path / "streams",
                              meta={"resumed": True})))
    assert {job.kind for job, _ in tasks} == {"kernel", "sweep", "npb",
                                              "checkprog", "selftest"}
    for task in tasks:
        job, ctx = pickle.loads(pickle.dumps((*task, 2)))[:2]
        assert job == task[0] and ctx == task[1]


# -- orphans -----------------------------------------------------------------

_HANG_FARM = """
import multiprocessing
from repro.farm import Job, RunFarm

def on_event(event):
    if event.kind == "start":
        print(*[p.pid for p in multiprocessing.active_children()],
              flush=True)

RunFarm(workers=2, on_event=on_event).run(
    [Job.selftest("hang", sleep_s=300.0) for _ in range(2)])
"""


def _gone(pid: int) -> bool:
    """No such process, or only its unreaped corpse."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(),
                    reason="needs /proc to watch foreign pids")
def test_workers_exit_when_their_parent_is_killed():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    farm = subprocess.Popen([sys.executable, "-c", _HANG_FARM], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        pids: set[int] = set()
        while len(pids) < 2:
            line = farm.stdout.readline()
            assert line, "farm exited before both workers started"
            pids.update(int(p) for p in line.split())
        assert not any(_gone(pid) for pid in pids)
        farm.kill()                     # SIGKILL: no cleanup runs
        farm.wait(timeout=10.0)
        deadline = time.monotonic() + 5 * ORPHAN_POLL_S + 5.0
        while time.monotonic() < deadline and not all(map(_gone, pids)):
            time.sleep(0.1)
        assert all(map(_gone, pids)), "workers outlived their parent"
    finally:
        farm.kill()
        farm.stdout.close()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
