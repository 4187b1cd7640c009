"""Checkpoint/restore: bit-identity, digests, audits, refusals.

The headline property: a run interrupted at an arbitrary quantum,
checkpointed, serialized to bytes, and restored into a *fresh* System
finishes with results, telemetry, and CPI stacks bit-identical to the
uninterrupted run.  Verified across every named config and three
workload shapes (microbench kernel, NPB-IS-style histogram, UME-style
irregular gather).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.reliability import (
    CheckpointAuditError,
    CheckpointError,
    SimCheckpoint,
    audit_checkpoint,
    corrupt_cache_line,
)
from repro.soc.presets import ALL_CONFIGS, get_config
from repro.soc.system import System
from repro.telemetry import Snapshot, StatsRegistry, cpi_stack
from repro.workloads.base import PhaseEmitter
from repro.workloads.microbench import get_kernel

QUANTUM, CHUNK = 512, 256


def kernel_trace(seed: int = 0):
    return get_kernel("MM").build(scale=0.05, seed=seed)


def is_style_trace(seed: int = 1):
    """NPB IS's local-histogram phase: streaming keys, random buckets."""
    rng = np.random.default_rng(seed)
    n, buckets = 1500, 256
    keys = rng.integers(0, buckets, size=n)
    loads = (0x10000 + 8 * np.arange(n, dtype=np.uint64)).astype(np.uint64)
    stores = (0x80000 + 8 * keys).astype(np.uint64)
    return PhaseEmitter().emit(loads=loads, stores=stores,
                               int_per_elem=3.0, elems=n)


def ume_style_trace(seed: int = 2):
    """UME's gather-heavy zone loop: indexed loads + chained FP."""
    rng = np.random.default_rng(seed)
    n = 1200
    gather = (0x200000 + 8 * rng.integers(0, 4096, size=n)).astype(np.uint64)
    return PhaseEmitter().emit(loads=gather, fp_per_elem=2.0,
                               fp_chain=True, elems=n)


def run_reference(cfg, trace):
    system = System(cfg)
    registry = StatsRegistry(system)
    base = registry.snapshot()
    result = system.run_parallel([trace], quantum=QUANTUM, chunk=CHUNK)[0]
    delta = registry.delta(base)
    return result, delta, cpi_stack(system, result, delta)


def run_interrupted(cfg, trace, stop_at: int):
    """Interrupt at *stop_at* quanta, restore into a fresh System, finish."""
    system1 = System(cfg)
    baseline = StatsRegistry(system1).snapshot().data
    run1 = system1.start_parallel([trace], quantum=QUANTUM, chunk=CHUNK)
    for _ in range(stop_at):
        if not run1.step():
            break
    blob = run1.checkpoint(extras={"baseline": baseline}).to_bytes()

    ckpt = SimCheckpoint.from_bytes(blob)  # digest verified on load
    system2 = System(cfg)
    registry2 = StatsRegistry(system2)
    run2 = system2.restore(ckpt, [trace])
    run2.run()
    result = run2.results()[0]
    delta = registry2.delta(Snapshot(ckpt.extras["baseline"]))
    return result, delta, cpi_stack(system2, result, delta)


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_bit_identity_every_config(name):
    cfg = ALL_CONFIGS[name]
    trace = kernel_trace()
    ref_result, ref_delta, ref_stack = run_reference(cfg, trace)
    stop_at = random.Random(name).randint(1, 6)  # arbitrary but reproducible
    result, delta, stack = run_interrupted(cfg, trace, stop_at)
    assert dataclasses.asdict(result) == dataclasses.asdict(ref_result)
    assert delta.data == ref_delta.data
    assert stack.to_dict() == ref_stack.to_dict()


@pytest.mark.parametrize("cfg_name", ["Rocket1", "SmallBOOM"])
@pytest.mark.parametrize("make_trace",
                         [kernel_trace, is_style_trace, ume_style_trace],
                         ids=["microbench", "npb-is", "ume"])
def test_bit_identity_workload_shapes(cfg_name, make_trace):
    cfg = get_config(cfg_name)
    trace = make_trace()
    ref_result, ref_delta, ref_stack = run_reference(cfg, trace)
    stop_at = random.Random(f"{cfg_name}/{make_trace.__name__}").randint(1, 5)
    result, delta, stack = run_interrupted(cfg, trace, stop_at)
    assert dataclasses.asdict(result) == dataclasses.asdict(ref_result)
    assert delta.data == ref_delta.data
    assert stack.to_dict() == ref_stack.to_dict()


def test_save_load_roundtrip(tmp_path):
    cfg = get_config("Rocket1")
    system = System(cfg)
    run = system.start_parallel([kernel_trace()], quantum=QUANTUM,
                                chunk=CHUNK)
    run.step(3)
    ckpt = run.checkpoint(extras={"note": "roundtrip"})
    path = ckpt.save(tmp_path / "run.ckpt")
    loaded = SimCheckpoint.load(path)
    assert loaded.digest == ckpt.digest
    assert loaded.config_name == "Rocket1"
    assert loaded.quanta == 3
    assert loaded.extras["note"] == "roundtrip"


def test_digest_tamper_detected():
    system = System(get_config("Rocket1"))
    run = system.start_parallel([kernel_trace()], quantum=QUANTUM,
                                chunk=CHUNK)
    run.step(2)
    ckpt = run.checkpoint()
    ckpt.digest = "0" * 64
    with pytest.raises(CheckpointError):
        SimCheckpoint.from_bytes(ckpt.to_bytes())


def test_restore_refuses_wrong_config():
    trace = kernel_trace()
    system = System(get_config("Rocket1"))
    run = system.start_parallel([trace], quantum=QUANTUM, chunk=CHUNK)
    run.step(2)
    ckpt = run.checkpoint()
    other = System(get_config("SmallBOOM"))
    with pytest.raises(CheckpointAuditError, match="fingerprint"):
        other.restore(ckpt, [trace])


def test_restore_refuses_wrong_trace():
    trace = kernel_trace(seed=0)
    system = System(get_config("Rocket1"))
    run = system.start_parallel([trace], quantum=QUANTUM, chunk=CHUNK)
    run.step(2)
    ckpt = run.checkpoint()
    fresh = System(get_config("Rocket1"))
    with pytest.raises(CheckpointError):
        fresh.restore(ckpt, [kernel_trace(seed=99)])


def test_bare_snapshot_restores_warmed_state():
    """A runless checkpoint moves warmed caches/predictors to a new System."""
    cfg = get_config("Rocket1")
    trace = kernel_trace()
    warmed = System(cfg)
    warmed.run(trace)                       # warm caches + predictors
    expected = warmed.run(trace)            # the warmed-run reference

    warmed2 = System(cfg)
    warmed2.run(trace)
    ckpt = warmed2.save_checkpoint()        # bare snapshot: no run attached
    assert ckpt.lanes is None
    fresh = System(cfg)
    assert fresh.restore(ckpt, None) is None
    got = fresh.run(trace)
    assert dataclasses.asdict(got) == dataclasses.asdict(expected)


def test_audit_catches_corrupt_cache_line():
    system = System(get_config("Rocket1"))
    run = system.start_parallel([kernel_trace()], quantum=QUANTUM,
                                chunk=CHUNK)
    run.step(3)
    corrupt_cache_line(system, tile=0, cache="l1d")
    ckpt = run.checkpoint()
    problems = audit_checkpoint(ckpt)
    assert any("duplicate" in p for p in problems), problems
    with pytest.raises(CheckpointAuditError):
        ckpt.audit()


def test_audit_catches_an_overfull_set_and_a_stray_dirty_line():
    """A row longer than the cache's ways (checked against the restoring
    system) and a dirty line that is not resident in its own set."""
    system = System(get_config("Rocket1"))
    system.run(kernel_trace())
    ckpt = system.save_checkpoint()
    assert audit_checkpoint(ckpt, system) == []
    l1d = ckpt.state["tiles"][0]["l1d"]
    stride = l1d["_set_mask"] + 1
    row = next(r for r in l1d["_tags"] if r)
    ways = system.tiles[0].port.l1d.cfg.ways
    row += [max(row) + stride * k for k in range(1, ways + 1)]
    l1d["_dirty"].add(max(row) + stride)
    problems = audit_checkpoint(ckpt, system)
    assert any(f"(ways {ways})" in p for p in problems), problems
    assert any("dirty line not resident" in p for p in problems), problems
    ckpt.digest = ckpt.compute_digest()     # sealed, so only the audit objects
    with pytest.raises(CheckpointAuditError):
        System(get_config("Rocket1")).restore(ckpt, None)


def test_audit_catches_token_leak():
    system = System(get_config("Rocket1"))
    run = system.start_parallel([kernel_trace()], quantum=QUANTUM,
                                chunk=CHUNK)
    run.step(3)
    run.scheduler.channels[0].produce(1)    # forge a token
    ckpt = run.checkpoint()
    problems = audit_checkpoint(ckpt)
    assert any("token" in p for p in problems), problems
