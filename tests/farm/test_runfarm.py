"""RunFarm scheduler tests: determinism, caching, fault tolerance."""

import json
import signal

import pytest

from repro.farm import FarmEvent, Job, ResultCache, RunFarm, run_jobs
from repro.farm.job import ExecContext
from repro.farm.pool import WorkerPool
from repro.soc import BANANA_PI_HW, ROCKET1, ROCKET2

KERNELS = ("EI", "MM", "Cca", "DP1f")


def fig1_style_jobs(scale=0.05):
    """>= 8 independent kernel jobs across hardware + sim configs."""
    return [Job.kernel(cfg, k, scale=scale)
            for cfg in (BANANA_PI_HW, ROCKET1, ROCKET2) for k in KERNELS]


def canon(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


# -- determinism -------------------------------------------------------------


def test_parallel_results_bit_identical_to_serial():
    jobs = fig1_style_jobs()
    assert len(jobs) >= 8
    serial = RunFarm(workers=1).run(jobs)
    for workers in (2, 4):
        parallel = RunFarm(workers=workers).run(jobs)
        assert canon(parallel) == canon(serial)
        assert [r.index for r in parallel] == list(range(len(jobs)))


def test_merge_order_is_submission_order_not_completion_order():
    # MM is ~40x slower than EI, so with 2 workers EI jobs finish first;
    # the merged list must still lead with MM
    jobs = [Job.kernel(ROCKET1, "MM", scale=0.1),
            Job.kernel(ROCKET1, "EI", scale=0.05),
            Job.kernel(ROCKET2, "EI", scale=0.05)]
    results = RunFarm(workers=2).run(jobs)
    assert [r.job.workload for r in results] == ["MM", "EI", "EI"]


# -- caching -----------------------------------------------------------------


def test_warm_cache_performs_zero_simulations(tmp_path):
    jobs = fig1_style_jobs()
    cache = ResultCache(tmp_path)

    cold_farm = RunFarm(workers=4, cache=cache)
    cold = cold_farm.run(jobs)
    assert cold_farm.stats.simulated == len(jobs)
    assert cold_farm.stats.cache_misses == len(jobs)
    assert not any(r.from_cache for r in cold)

    warm_farm = RunFarm(workers=4, cache=cache)
    warm = warm_farm.run(jobs)
    stats = warm_farm.stats
    assert stats.simulated == 0 and stats.cache_hits == len(jobs)
    assert all(r.from_cache and r.attempts == 0 for r in warm)
    assert canon(warm) == canon(cold)

    # the cache-hit counter is exposed through telemetry
    flat = stats.to_snapshot().flat()
    assert flat["farm.cache_hits"] == len(jobs)
    assert flat["farm.simulated"] == 0


def test_cache_invalidation_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    job1 = Job.kernel(ROCKET1, "EI", scale=0.05)
    RunFarm(workers=1, cache=cache).run([job1])

    # same kernel, different config knob -> miss, not a stale hit
    job2 = Job.kernel(ROCKET2, "EI", scale=0.05)
    farm = RunFarm(workers=1, cache=cache)
    farm.run([job2])
    assert farm.stats.cache_hits == 0 and farm.stats.simulated == 1

    # the original entry still hits
    farm2 = RunFarm(workers=1, cache=cache)
    farm2.run([job1])
    assert farm2.stats.cache_hits == 1 and farm2.stats.simulated == 0


def test_cache_accepts_plain_path_and_env(tmp_path, monkeypatch):
    jobs = [Job.kernel(ROCKET1, "EI", scale=0.05)]
    farm = RunFarm(workers=1, cache=str(tmp_path))
    farm.run(jobs)
    assert farm.stats.cache_misses == 1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    env_farm = RunFarm(workers=1)
    env_farm.run(jobs)
    assert env_farm.stats.cache_hits == 1


def test_workers_default_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert RunFarm().workers == 3
    monkeypatch.setenv("REPRO_WORKERS", "garbage")
    assert RunFarm().workers == 1


# -- fault tolerance ---------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_job_is_retried_then_reported_without_sinking_sweep(workers):
    jobs = [Job.kernel(ROCKET1, "EI", scale=0.05),
            Job.selftest("raise"),
            Job.kernel(ROCKET2, "EI", scale=0.05)]
    farm = RunFarm(workers=workers, max_retries=2, backoff_s=0.01)
    results = farm.run(jobs)

    assert [r.status for r in results] == ["ok", "failed", "ok"]
    bad = results[1]
    assert bad.attempts == 3 and "injected failure" in bad.error
    assert farm.stats.retries == 2
    assert farm.stats.ok == 2 and farm.stats.failed == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_flaky_job_succeeds_after_retry(workers):
    jobs = [Job.selftest("flaky", fail_times=1, value=7)]
    farm = RunFarm(workers=workers, max_retries=1, backoff_s=0.01)
    results = farm.run(jobs)
    assert results[0].ok and results[0].attempts == 2
    assert results[0].payload["value"] == 7
    assert farm.stats.retries == 1


def test_hung_worker_times_out_retried_then_failed():
    jobs = [Job.kernel(ROCKET1, "EI", scale=0.05),
            Job.selftest("hang", sleep_s=30.0)]
    farm = RunFarm(workers=2, timeout_s=0.3, max_retries=1, backoff_s=0.01)
    results = farm.run(jobs)

    assert results[0].ok                        # sweep not sunk
    assert not results[1].ok
    assert "timed out" in results[1].error
    assert farm.stats.timeouts == 3             # the first one host-credited
    assert farm.stats.retries == 2


def test_per_job_timeout_overrides_farm_timeout():
    jobs = [Job.selftest("hang", sleep_s=30.0, timeout_s=0.3),
            Job.selftest("ok")]
    farm = RunFarm(workers=2, timeout_s=None, max_retries=0, backoff_s=0.0)
    results = farm.run(jobs)
    assert not results[0].ok and "timed out" in results[0].error
    assert results[1].ok


def test_reaped_finished_worker_leaves_stderr_empty(capfd):
    """A pool worker retired after it reported must die of the plain
    SIGTERM, not unwind the scheduler's inherited SIGTERM->
    KeyboardInterrupt handler into a traceback."""
    restore = RunFarm(workers=2)._install_sigterm()
    try:
        pool = WorkerPool()
        worker = pool.submit("local", Job.selftest("ok"), 1,
                             ExecContext(in_process=False))
        assert worker.conn.poll(30.0) and worker.result()[0] == "ok"
        pool.release(worker)            # idle: blocked on its pipe
        assert worker.proc.is_alive()
        pool.close()
    finally:
        restore()
    assert worker.proc.exitcode == -signal.SIGTERM
    assert capfd.readouterr().err == ""


def test_strict_run_jobs_raises_with_every_failure_listed():
    jobs = [Job.selftest("raise"), Job.selftest("ok")]
    with pytest.raises(RuntimeError, match="1/2.*raise@"):
        run_jobs(jobs, workers=1, max_retries=0, backoff_s=0.0, strict=True)


# -- progress events ---------------------------------------------------------


def test_event_stream_covers_lifecycle(tmp_path):
    events: list[FarmEvent] = []
    jobs = [Job.kernel(ROCKET1, "EI", scale=0.05), Job.selftest("raise")]
    cache = ResultCache(tmp_path)
    RunFarm(workers=1, cache=cache, max_retries=1, backoff_s=0.0,
            on_event=events.append).run(jobs)
    kinds = [(e.kind, e.index) for e in events]
    assert ("ok", 0) in kinds
    assert ("retry", 1) in kinds and ("failed", 1) in kinds
    assert all(e.total == 2 for e in events)

    events.clear()
    RunFarm(workers=1, cache=cache, on_event=events.append).run(jobs[:1])
    assert [(e.kind, e.index) for e in events] == [("cache-hit", 0)]
