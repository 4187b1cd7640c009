"""`Job.sweep`: the farm's config-batched sweep kind — labels, cache
descriptions, and crash-safe checkpoint/resume of a half-finished
sweep (resumed results must match a straight-through run bit for
bit)."""

from __future__ import annotations

import json

import pytest

from repro.accel import memo
from repro.farm.job import ExecContext, Job, execute_job, execute_job_meta
from repro.reliability.faults import Fault, FaultInjected
from repro.soc.presets import get_config

CFGS = [get_config("Rocket1"), get_config("Rocket2"),
        get_config("BananaPiSim")]


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


def test_sweep_label_and_kind():
    job = Job.sweep(CFGS, "EI", scale=0.05)
    assert job.kind == "sweep"
    assert job.label == "EI@sweep[3]"
    assert job.param("scale") == 0.05


def test_sweep_rejects_empty_and_duplicate_configs():
    with pytest.raises(ValueError, match="at least one"):
        Job.sweep([], "EI")
    cfg = get_config("Rocket1")
    with pytest.raises(ValueError, match="unique names"):
        Job.sweep([cfg, cfg.with_(ncores=1)], "EI")


def test_sweep_describe_is_json_clean():
    """describe() keys the result cache, so dataclass configs must
    lower to plain JSON trees."""
    job = Job.sweep(CFGS, "EI", scale=0.05)
    desc = job.describe()
    blob = json.dumps(desc, sort_keys=True)
    assert all(cfg.name in blob for cfg in CFGS)


def test_sweep_payload_matches_kernel_jobs():
    serial = {}
    for cfg in CFGS:
        serial[cfg.name] = execute_job(Job.kernel(cfg, "EI", scale=0.05))
    memo.clear_caches()
    payload = execute_job(Job.sweep(CFGS, "EI", scale=0.05))
    assert payload["kind"] == "sweep"
    assert payload["configs"] == [cfg.name for cfg in CFGS]
    assert list(payload["points"]) == payload["configs"]
    assert payload["points"] == serial


def test_sweep_repeats_with_warm_memo():
    """A second execution of the same sweep is served from the memo —
    every point must still reach the payload (memo hits fire on_point
    like freshly simulated configs; regression for a KeyError when the
    sweep job's accumulator only saw simulated points)."""
    job = Job.sweep(CFGS, "EI", scale=0.05)
    cold = execute_job(job)
    warm = execute_job(job)  # no clear_caches: all points memo-served
    assert warm == cold


def test_sweep_checkpoint_kill_resume_bit_identical(tmp_path):
    """Kill the worker after one completed config; the retry must load
    the checkpoint, batch only the remainder, report `resumed`, and
    produce the same payload as an uninterrupted run."""
    job = Job.sweep(CFGS, "EI", scale=0.05)
    straight = execute_job(job)

    memo.clear_caches()
    ctx = ExecContext(fault=Fault("kill", (("after", 1),)),
                      checkpoint_dir=tmp_path, checkpoint_every=1)
    with pytest.raises(FaultInjected):
        execute_job(job, ctx=ctx)
    ckpts = list(tmp_path.iterdir())
    assert len(ckpts) == 1
    saved = json.loads(ckpts[0].read_text())
    assert len(saved["points"]) == 1

    memo.clear_caches()
    ctx2 = ExecContext(checkpoint_dir=tmp_path, checkpoint_every=1)
    payload, meta = execute_job_meta(job, attempt=2, ctx=ctx2)
    assert meta["resumed"] is True
    assert payload == straight
    assert not list(tmp_path.iterdir())  # checkpoint removed on success
