"""Checkpoints written before the cache-policy, DRAM-page-policy and
coherence knobs were deleted are refused cleanly.

Such a checkpoint carries ``_plru``/``_rng_state`` in every cache's state
and is stamped with the config digest of a tree that still had the
``replacement``, ``write_back``, ``open_page`` and ``coherence`` keys.
The values below are that era's ``config_digest(BANANA_PI_SIM)`` and
``cache_key`` of :func:`_job`.
"""

import numpy as np
import pytest

from repro.farm import Job, cache_key, execute_job
from repro.farm.job import ExecContext, execute_job_meta
from repro.reliability import CheckpointError, SimCheckpoint
from repro.soc import BANANA_PI_SIM, System
from repro.soc.config import config_digest
from repro.workloads.microbench import get_kernel

OLD_DIGEST = "ef586ff41aa7a148ee5218c8989790dcb3b12cc834a8696e9a1e65cfb623ba49"
OLD_KEY = "b4968afbc56cca6ac00ed9bf708224378d260259b7a79c6f5cec915c49bda265"


def _job():
    return Job.kernel(BANANA_PI_SIM, "MM", scale=0.05, seed=0, quantum=256)


def _old_checkpoint(config_fp=OLD_DIGEST):
    """A mid-run checkpoint of :func:`_job` as the older code wrote it."""
    trace = get_kernel("MM").build(scale=0.05, seed=0)
    run = System(BANANA_PI_SIM).start_parallel([trace], quantum=256,
                                               chunk=128)
    run.step(2)
    assert not run.done
    ckpt = run.checkpoint(extras={"baseline": {}})
    caches = [t[c] for t in ckpt.state["tiles"] for c in ("l1i", "l1d")]
    for state in caches + [ckpt.state["uncore"]["l2"]]:
        state["_plru"] = np.zeros(state["_tags"].shape[0], dtype=np.int64)
        state["_rng_state"] = 0x9E3779B9
    ckpt.config_fp = config_fp
    ckpt.digest = ckpt.compute_digest()  # sealed, as it was on disk
    return ckpt, trace


def test_old_checkpoint_is_refused_with_a_checkpoint_error(tmp_path):
    ckpt, trace = _old_checkpoint()
    assert OLD_DIGEST != config_digest(BANANA_PI_SIM)
    path = ckpt.save(tmp_path / "old.ckpt")
    loaded = SimCheckpoint.load(path)       # intact: its digest verifies
    with pytest.raises(CheckpointError, match="fingerprint"):
        System(BANANA_PI_SIM).restore(loaded, [trace])
    # even stamped with today's digest, the stale cache state is refused
    # before it reaches a run
    forged, trace = _old_checkpoint(config_fp=config_digest(BANANA_PI_SIM))
    with pytest.raises(CheckpointError, match="_plru"):
        System(BANANA_PI_SIM).restore(forged, [trace])


def test_lockstep_job_ignores_an_old_checkpoint_and_runs_from_zero(tmp_path):
    job = _job()
    assert cache_key(job) != OLD_KEY
    old = tmp_path / f"{OLD_KEY}.ckpt"
    _old_checkpoint()[0].save(old)
    before = old.read_bytes()
    # the same stale file under today's key is refused, not resumed
    _old_checkpoint()[0].save(tmp_path / f"{cache_key(job)}.ckpt")
    ctx = ExecContext(checkpoint_dir=tmp_path, checkpoint_every=10_000)
    payload, meta = execute_job_meta(job, ctx=ctx)
    assert payload == execute_job(_job())
    assert not meta.get("resumed")
    assert old.read_bytes() == before
