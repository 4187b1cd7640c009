"""One charge rule for both front ends of the executor core.

``RunFarm`` (blocking) and ``FarmServer`` (asyncio) launch, reap and
settle attempts through :mod:`repro.farm.executor`, so the same fault
plan on the same fleet must end the same way in each: a crash or a
stall on a host earns the job a host credit, and the job is retried
rather than failed.  Two jobs keep ``RunFarm`` on its worker pool.
"""

import gc
import weakref

import pytest

from repro.farm import ExternallyProvisionedDeployManager, Job, RunFarm
from repro.farm import execute_job
from repro.reliability import FaultPlan
from repro.serve import FarmServer
from repro.soc import ROCKET1, ROCKET2

JOBS = [Job.kernel(ROCKET1, "EI", scale=0.05),
        Job.kernel(ROCKET2, "EI", scale=0.05)]


def _run_farm(tmp_path, jobs, **kw):
    farm = RunFarm(backoff_s=0.0, **kw)
    return [(r.status, r.attempts, r.host, r.payload)
            for r in farm.run(jobs)]


def _run_server(tmp_path, jobs, **kw):
    out = []
    with FarmServer.start_background(tmp_path / "spool", store=False,
                                     backoff_s=0.0, **kw) as handle:
        client = handle.client()
        ids = [client.submit(job)["id"] for job in jobs]
        for jid in ids:
            done = client.wait(jid, timeout_s=60.0, poll_s=0.01)
            payload = client.status(jid, payload=True)["payload"]
            out.append((done["state"], done["attempts"], done["host"],
                        payload))
    return out


FRONT_ENDS = pytest.mark.parametrize("run", [_run_farm, _run_server],
                                     ids=["runfarm", "server"])


@pytest.fixture(scope="module")
def serial():
    return [execute_job(job) for job in JOBS]


@FRONT_ENDS
def test_first_crash_on_a_host_is_the_hosts(run, tmp_path, serial):
    got = run(tmp_path, JOBS, deploy="hosts:a=1,b=1", max_retries=0,
              fault_plan=FaultPlan.parse("kill job=0 attempt=1"))
    assert [(state, attempts) for state, attempts, _, _ in got] == \
        [("ok", 2), ("ok", 1)]
    assert [payload for *_, payload in got] == serial


@FRONT_ENDS
def test_stalled_host_times_out_and_the_job_moves(run, tmp_path, serial):
    deploy = ExternallyProvisionedDeployManager(
        [("a", 1), ("b", 1)], suspect_after=1, quarantine_after=1,
        probe_interval=1000)
    got = run(tmp_path, JOBS, deploy=deploy, max_retries=0, timeout_s=1.0,
              fault_plan=FaultPlan.parse("host-stall host=a count=1"))
    assert [state for state, *_ in got] == ["ok", "ok"]
    assert got[0][1:3] == (2, "b")          # stalled on a, re-placed on b
    assert [payload for *_, payload in got] == serial


def test_a_stopped_server_is_freed_by_its_last_reference(tmp_path):
    """The executor keeps no reference back to its front end, so a
    stopped server, and every payload it holds, goes with its last
    reference instead of waiting for a full collection."""
    gc.disable()
    try:
        handle = FarmServer.start_background(tmp_path / "spool", store=False)
        handle.stop()
        server = weakref.ref(handle.server)
        del handle
        assert server() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("backoff_s", [0.0, 0.01, 0.1, 0.25, 0.3, 1.5, 3.0])
def test_retry_delay_doubles_from_backoff_to_a_two_second_cap(backoff_s):
    """Attempt *n* waits ``backoff_s * 2**(n-1)`` seconds, at most 2 s,
    and none at all when ``backoff_s`` is 0: bit-for-bit the schedule
    the farm and the server have always kept."""
    from repro.farm import resolve_deploy
    from repro.farm.executor import Executor, JobTally

    ex = Executor(resolve_deploy("local:1", None), max_retries=99,
                  backoff_s=backoff_s, timeout_s=None, fault_plan=None,
                  checkpoint_dir=None, checkpoint_every=1)
    for attempt in range(1, 10):
        rec = JobTally(JOBS[0], ordinal=0, attempts=attempt, host="local")
        want = (0.0 if backoff_s == 0.0
                else min(backoff_s * 2.0 ** (attempt - 1), 2.0))
        assert ex.settle(rec, "error").delay == want
