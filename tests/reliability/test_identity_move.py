"""Checkpoints written by older layouts are refused cleanly.

Schema 1 checkpoints held cache and predictor tables as numpy arrays.
The oldest also carried ``_plru``/``_rng_state`` in every cache's state
(before the cache-policy, DRAM-page-policy and coherence knobs were
deleted), were stamped with the config digest of a tree that still had
those keys, and held a ``TAGE._rng`` generator in the predictor state.
The values below are that era's ``config_digest(BANANA_PI_SIM)`` and
``cache_key`` of :func:`_job`.  The schema is checked before anything
else, so such a file is refused before its numpy content is walked.
Schema 2 checkpoints lack TAGE's folded-history registers, which a
restore would otherwise leave at their values in the target system.
Schema 3 checkpoints hold every cache set as per-way tag, dirty-bit and
LRU-stamp rows, where today a set is its resident tags in LRU order.
"""

import numpy as np
import pytest

from repro.farm import Job, cache_key, execute_job
from repro.farm.job import ExecContext, execute_job_meta
from repro.reliability import CheckpointError, SimCheckpoint
from repro.soc import BANANA_PI_SIM, System, get_config
from repro.soc.config import config_digest
from repro.workloads.microbench import get_kernel

OLD_DIGEST = "ef586ff41aa7a148ee5218c8989790dcb3b12cc834a8696e9a1e65cfb623ba49"
OLD_KEY = "b4968afbc56cca6ac00ed9bf708224378d260259b7a79c6f5cec915c49bda265"


def _job():
    return Job.kernel(BANANA_PI_SIM, "MM", scale=0.05, seed=0, quantum=256)


def _as_schema_1(ckpt, config_fp):
    """Rewrite *ckpt* in the schema-1 layout: numpy tables, with the
    branch predictor inside the branch unit's state."""
    for ts in ckpt.state["tiles"]:
        for c in ("l1i", "l1d"):
            _numpy_cache(ts[c])
        bru = ts["bru"]
        bru["btb"] = {k: np.array(v) for k, v in ts.pop("btb").items()}
        bru["direction"] = {k: np.array(v) if isinstance(v, list) else v
                            for k, v in ts.pop("direction").items()}
        ts.pop("base")
    _numpy_cache(ckpt.state["uncore"]["l2"])
    ckpt.schema = 1
    ckpt.config_fp = config_fp
    return ckpt


def _per_way(state):
    """Rewrite a cache's state in the per-way layout of schemas 1-3: per
    set, tags (-1 = invalid), dirty bits and LRU stamps (larger = more
    recent), derived from today's LRU-ordered rows and dirty set."""
    rows, dirty = state["_tags"], state["_dirty"]
    ways = max((len(r) for r in rows if r is not None), default=1)

    def per_way(values, empty):
        return [None if r is None else v + [empty] * (ways - len(r))
                for r, v in zip(rows, values)]

    state["_tags"] = per_way(rows, -1)
    state["_dirty"] = per_way([r and [t in dirty for t in r] for r in rows],
                              False)
    state["_lru"] = per_way([r and list(range(1, len(r) + 1)) for r in rows],
                            0)
    state["_use_counter"] = ways
    return ways


def _numpy_cache(state):
    ways = _per_way(state)
    for name, empty in (("_tags", -1), ("_dirty", False), ("_lru", 0)):
        state[name] = np.array([r if r is not None else [empty] * ways
                                for r in state[name]])
    state["_plru"] = np.zeros(len(state["_tags"]), dtype=np.int64)
    state["_rng_state"] = 0x9E3779B9


def _old_checkpoint(config_fp=OLD_DIGEST):
    """A mid-run checkpoint of :func:`_job` as the older code wrote it."""
    trace = get_kernel("MM").build(scale=0.05, seed=0)
    run = System(BANANA_PI_SIM).start_parallel([trace], quantum=256,
                                               chunk=128)
    run.step(2)
    assert not run.done
    ckpt = run.checkpoint(extras={"baseline": {}})
    return _as_schema_1(ckpt, config_fp), trace


def test_old_checkpoint_is_refused_with_a_checkpoint_error(tmp_path):
    ckpt, trace = _old_checkpoint()
    assert OLD_DIGEST != config_digest(BANANA_PI_SIM)
    with pytest.raises(CheckpointError, match="schema 1"):
        System(BANANA_PI_SIM).restore(ckpt, [trace])
    path = ckpt.save(tmp_path / "old.ckpt")
    with pytest.raises(CheckpointError, match="schema 1"):
        SimCheckpoint.load(path)
    # even stamped with today's digest, the old layout is refused before
    # it reaches a run
    forged, trace = _old_checkpoint(config_fp=config_digest(BANANA_PI_SIM))
    with pytest.raises(CheckpointError, match="schema 1"):
        System(BANANA_PI_SIM).restore(forged, [trace])


def test_schema_1_predictor_checkpoint_is_refused():
    """A TAGE core's schema-1 snapshot, numpy tables and a ``_rng``
    generator in its predictor state, is refused by name of its schema."""
    cfg = get_config("SmallBOOM")
    trace = get_kernel("CCh").build(scale=0.05, seed=0)
    old = System(cfg)
    old.run(trace)
    ckpt = _as_schema_1(old.save_checkpoint(), config_digest(cfg))
    direction = ckpt.state["tiles"][0]["bru"]["direction"]
    assert isinstance(direction["_ctr"], np.ndarray)
    direction["_rng"] = np.random.default_rng(0xB00)
    blob = ckpt.to_bytes()
    with pytest.raises(CheckpointError, match="schema 1"):
        SimCheckpoint.from_bytes(blob)
    with pytest.raises(CheckpointError, match="schema 1"):
        System(cfg).restore(ckpt, None)


def test_schema_2_checkpoint_without_folded_registers_is_refused(tmp_path):
    """A TAGE core's schema-2 snapshot: list tables, no folded-history
    registers in its predictor state.  Refused by name of its schema."""
    cfg = get_config("SmallBOOM")
    trace = get_kernel("CCh").build(scale=0.05, seed=0)
    old = System(cfg)
    old.run(trace)
    ckpt = old.save_checkpoint()
    for ts in ckpt.state["tiles"]:
        for name in ("_fidx", "_ftag", "_ftag1"):
            del ts["direction"][name]
    ckpt.schema = 2
    with pytest.raises(CheckpointError, match="schema 2"):
        SimCheckpoint.from_bytes(ckpt.to_bytes())
    with pytest.raises(CheckpointError, match="schema 2"):
        SimCheckpoint.load(ckpt.save(tmp_path / "schema2.ckpt"))
    with pytest.raises(CheckpointError, match="schema 2"):
        System(cfg).restore(ckpt, None)


def test_schema_3_per_way_cache_checkpoint_is_refused(tmp_path):
    """A schema-3 snapshot: every cache set as per-way tag, dirty-bit and
    LRU-stamp rows.  Refused by name of its schema."""
    cfg = get_config("BananaPiSim")
    trace = get_kernel("MM").build(scale=0.05, seed=0)
    old = System(cfg)
    old.run(trace)
    ckpt = old.save_checkpoint()
    for ts in ckpt.state["tiles"]:
        for c in ("l1i", "l1d"):
            _per_way(ts[c])
    _per_way(ckpt.state["uncore"]["l2"])
    ckpt.schema = 3
    with pytest.raises(CheckpointError, match="schema 3"):
        SimCheckpoint.from_bytes(ckpt.to_bytes())
    with pytest.raises(CheckpointError, match="schema 3"):
        SimCheckpoint.load(ckpt.save(tmp_path / "schema3.ckpt"))
    with pytest.raises(CheckpointError, match="schema 3"):
        System(cfg).restore(ckpt, None)


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
