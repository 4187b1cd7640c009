"""Fault-injection DSL, appliers, and the farm's chaos behaviours."""

from __future__ import annotations

import json

import pytest

from repro.farm.cache import ResultCache, cache_key
from repro.farm.job import Job
from repro.farm.runfarm import RunFarm
from repro.reliability import (
    Fault,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    apply_worker_fault,
    audit_checkpoint,
    corrupt_cache_entry,
    corrupt_cache_line,
)
from repro.soc.presets import ROCKET1, get_config
from repro.soc.system import System
from repro.workloads.microbench import get_kernel


def canon(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


# -- DSL ---------------------------------------------------------------------


def test_plan_parse_and_describe_roundtrip():
    text = ("kill job=2 attempt=1 after=8\n"
            "hang job=1 sleep=30  # operator note\n"
            "token-drop lane=0 quantum=10; token-dup lane=1 quantum=10\n"
            "corrupt-line tile=0 cache=l1d\n"
            "corrupt-cache entry=0\n")
    plan = FaultPlan.parse(text, seed=42)
    assert len(plan) == 6
    assert plan.seed == 42
    assert FaultPlan.parse(plan.describe(), seed=42) == plan


def test_plan_rejects_unknown_kind_and_bad_params():
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultPlan.parse("explode job=1")
    with pytest.raises(FaultPlanError, match="key=value"):
        FaultPlan.parse("kill job2")


def test_plan_selectors():
    plan = FaultPlan.parse(
        "kill job=2\n"
        "error job=3 attempt=2\n"
        "token-drop lane=0 quantum=10\n"
        "corrupt-cache entry=1\n"
        "truncate-cache entry=0\n")
    assert plan.worker_fault(2, 1).kind == "kill"
    assert plan.worker_fault(2, 2) is None   # attempt defaults to 1
    assert plan.worker_fault(3, 2).kind == "error"
    assert plan.worker_fault(0, 1) is None
    assert [f.kind for f in plan.token_faults(10)] == ["token-drop"]
    assert plan.token_faults(9) == []
    assert len(plan.cache_faults()) == 2


def test_plan_rng_is_deterministic():
    plan = FaultPlan.parse("corrupt-cache entry=0", seed=7)
    assert plan.rng().random() == plan.rng().random()


def test_fault_param_coercion():
    fault = Fault.parse("kill job=2 sleep=1.5 note=abc")
    assert fault.param("job") == 2
    assert fault.param("sleep") == 1.5
    assert fault.param("note") == "abc"
    assert fault.param("missing", "x") == "x"


# -- appliers ----------------------------------------------------------------


def test_worker_fault_in_process():
    kill = Fault.parse("kill job=0")
    with pytest.raises(FaultInjected):
        apply_worker_fault(kill, in_process=True)
    err = Fault.parse("error job=0")
    with pytest.raises(FaultInjected):
        apply_worker_fault(err, in_process=True)
    with pytest.raises(FaultPlanError):
        apply_worker_fault(Fault.parse("token-drop lane=0"), in_process=True)


def test_token_drop_underflows_immediately():
    system = System(get_config("Rocket1"))
    trace = get_kernel("MM").build(scale=0.05)
    plan = FaultPlan.parse("token-drop lane=0 quantum=2")
    with pytest.raises(RuntimeError, match="underflow"):
        system.run_parallel([trace], quantum=256, chunk=128, fault_plan=plan)


def test_corrupt_line_fault_breaks_the_audit():
    system = System(get_config("Rocket1"))
    trace = get_kernel("MM").build(scale=0.05)
    plan = FaultPlan.parse("corrupt-line tile=0 cache=l1d quantum=2")
    run = system.start_parallel([trace], quantum=256, chunk=128,
                                fault_plan=plan)
    while run.quanta < 3 and run.step():    # injection fires at quantum 2
        pass
    problems = audit_checkpoint(run.checkpoint())
    assert any("duplicate" in p for p in problems), problems


def test_corrupt_line_targets_l2():
    system = System(get_config("Rocket1"))
    system.run(get_kernel("MM").build(scale=0.05))
    assert corrupt_cache_line(system, cache="l2") == system.uncore.l2.name


# -- on-disk cache damage ----------------------------------------------------


@pytest.mark.parametrize("mode", ["garbage", "truncate", "schema"])
def test_cache_corruption_quarantined_as_miss(tmp_path, mode):
    cache = ResultCache(tmp_path)
    job = Job.selftest("ok", value=5)
    key = cache_key(job)
    cache.put(key, job, {"value": 5})
    assert cache.get(key) == {"value": 5}
    corrupt_cache_entry(cache, key, mode=mode)
    assert cache.get(key) is None           # miss, not an exception
    assert cache.corrupt_quarantined == 1
    assert not cache.path(key).exists()     # moved aside, not left in place
    quarantined = list(cache.quarantine_dir.glob("*.json"))
    assert len(quarantined) == 1
    reason = quarantined[0].with_suffix(".reason").read_text()
    assert reason.strip()


def test_cache_corrupt_missing_entry_is_noop(tmp_path):
    cache = ResultCache(tmp_path)
    assert corrupt_cache_entry(cache, "0" * 64) is None


# -- the farm under chaos ----------------------------------------------------


@pytest.fixture(scope="module")
def lockstep_jobs():
    return [Job.kernel(ROCKET1, name, scale=0.05, quantum=512, chunk=256)
            for name in ("EI", "MM")]


@pytest.fixture(scope="module")
def reference(lockstep_jobs):
    results = RunFarm(workers=1).run(lockstep_jobs)
    assert all(r.ok for r in results)
    return canon(results)


def test_farm_resumes_killed_job_bit_identically(tmp_path, lockstep_jobs,
                                                 reference):
    plan = FaultPlan.parse("kill job=1 attempt=1 after=4", seed=3)
    farm = RunFarm(workers=1, fault_plan=plan,
                   checkpoint_dir=tmp_path / "ckpt", checkpoint_every=2,
                   backoff_s=0.0)
    results = farm.run(lockstep_jobs)
    assert all(r.ok for r in results), [r.error for r in results]
    assert canon(results) == reference
    assert results[1].attempts == 2
    assert results[1].resumed
    assert farm.stats.resumed == 1
    assert farm.stats.retries == 1
    # checkpoint consumed on success: nothing left to leak
    assert not list((tmp_path / "ckpt").glob("*.ckpt"))


def test_farm_without_checkpoints_still_converges(lockstep_jobs, reference):
    plan = FaultPlan.parse("kill job=0 attempt=1 after=2")
    farm = RunFarm(workers=1, fault_plan=plan, backoff_s=0.0)
    results = farm.run(lockstep_jobs)
    assert all(r.ok for r in results)
    assert canon(results) == reference
    assert farm.stats.resumed == 0          # no dir -> clean re-run


def test_farm_quarantines_planned_cache_damage(tmp_path, lockstep_jobs,
                                               reference):
    cache = ResultCache(tmp_path / "cache")
    RunFarm(workers=1, cache=cache).run(lockstep_jobs)  # fill
    plan = FaultPlan.parse("corrupt-cache entry=0; truncate-cache entry=1")
    farm = RunFarm(workers=1, cache=cache, fault_plan=plan)
    results = farm.run(lockstep_jobs)
    assert all(r.ok for r in results)
    assert canon(results) == reference
    assert farm.stats.corrupt == 2
    assert farm.stats.cache_hits == 0
    # damaged entries were re-simulated and re-cached: next run all hits
    healed = RunFarm(workers=1, cache=cache)
    assert canon(healed.run(lockstep_jobs)) == reference
    assert healed.stats.cache_hits == 2


def test_farm_graceful_interrupt_writes_manifest(tmp_path):
    jobs = [Job.selftest("ok", value=1),
            Job.selftest("interrupt"),
            Job.selftest("ok", value=3)]
    manifest = tmp_path / "manifest.json"
    farm = RunFarm(workers=1, max_retries=0, manifest_path=manifest)
    results = farm.run(jobs)        # returns partial results, does not raise
    assert farm.interrupted
    assert [r.status for r in results] == ["ok", "interrupted", "interrupted"]
    assert farm.stats.interrupted == 2
    assert farm.stats.ok == 1
    assert farm.stats.failed == 0
    doc = json.loads(manifest.read_text())
    assert doc["interrupted"] is True
    assert [j["status"] for j in doc["jobs"]] == \
        ["ok", "interrupted", "interrupted"]
    assert doc["stats"]["interrupted"] == 2


def test_farm_manifest_written_on_clean_run(tmp_path):
    manifest = tmp_path / "manifest.json"
    farm = RunFarm(workers=1, manifest_path=manifest)
    farm.run([Job.selftest("ok", value=9)])
    doc = json.loads(manifest.read_text())
    assert doc["interrupted"] is False
    assert doc["jobs"][0]["status"] == "ok"


def test_worker_error_fault_is_retried_to_success(lockstep_jobs, reference):
    plan = FaultPlan.parse("error job=0 attempt=1")
    farm = RunFarm(workers=1, fault_plan=plan, backoff_s=0.0)
    results = farm.run(lockstep_jobs)
    assert all(r.ok for r in results)
    assert canon(results) == reference
    assert results[0].attempts == 2


def test_serve_verb_reads_its_fault_plan_from_a_file(tmp_path, monkeypatch):
    """`repro serve --fault-plan @FILE` reads the file, as `repro farm`
    does; the server it would start is replaced by a recorder."""
    import repro.serve
    from repro.cli import main

    class Started(Exception):
        pass

    seen = {}

    def recorder(spool, **kw):
        seen.update(kw)
        raise Started

    monkeypatch.setattr(repro.serve, "FarmServer", recorder)
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("kill job=1 attempt=1\nhost-stall host=a count=1\n")
    with pytest.raises(Started):
        main(["serve", "--spool", str(tmp_path / "spool"), "--no-store",
              "--fault-plan", f"@{plan_file}", "--fault-seed", "3"])
    plan = seen["fault_plan"]
    assert [f.kind for f in plan.faults] == ["kill", "host-stall"]
    assert plan.seed == 3
