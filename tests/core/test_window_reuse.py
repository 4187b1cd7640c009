"""Resolved branch front-end windows, reused across units of one
predictor config (``BranchUnit.resolve_window``).

A reused window must leave exactly what a live walk leaves: the same
results, telemetry, checkpoint bytes and later behaviour.  Reuse may
only fire on a whole trace whose digest is already known, under an
unbroken lineage.
"""

import dataclasses

import pytest

from repro.accel import memo
from repro.accel.batch import batched_sweep
from repro.core.branch import BranchUnit
from repro.reliability.checkpoint import _grab
from repro.core.vector import VectorConfig
from repro.isa.trace import TraceBuilder
from repro.soc import System, get_config
from repro.soc.config import BranchPredictorConfig
from repro.soc.presets import ALL_CONFIGS
from repro.soc.system import build_branch_unit
from repro.telemetry import StatsRegistry
from repro.workloads.microbench import get_kernel

CONFIGS = [ALL_CONFIGS[n] for n in sorted(ALL_CONFIGS)]


@pytest.fixture(autouse=True)
def _cold():
    memo.clear_caches()
    yield
    memo.clear_caches()


@pytest.fixture
def binds(monkeypatch):
    """Every live walk (``BranchUnit._walk``), by the unit's predictor
    kind."""
    calls = []
    live = BranchUnit._walk

    def counting(self, *args):
        calls.append(type(self.direction).__name__)
        return live(self, *args)

    monkeypatch.setattr(BranchUnit, "_walk", counting)
    return calls


def _trace(kernel, scale=0.05):
    trace = get_kernel(kernel).build(scale=scale, seed=0)
    memo.trace_digest(trace)        # as every memo-keyed caller leaves it
    return trace


def _point(cfg, trace):
    """Warm pass, measured pass: (result, telemetry delta, checkpoint
    bytes, checkpoint digest)."""
    system = System(cfg)
    registry = StatsRegistry(system)
    system.run(trace)
    base = registry.snapshot()
    result = system.run(trace)
    ckpt = system.save_checkpoint()
    return result, registry.delta(base).data, ckpt.to_bytes(), ckpt.digest


@pytest.mark.parametrize("kernel", ["MM", "CS1", "CRf"])
def test_reused_points_equal_cold_points_on_every_config(kernel, binds):
    trace = _trace(kernel)
    cold = {}
    for cfg in CONFIGS:
        memo.clear_caches()
        cold[cfg.name] = _point(cfg, trace)
    live = len(binds)
    memo.clear_caches()
    for cfg in CONFIGS:
        assert _point(cfg, trace) == cold[cfg.name], cfg.name
    assert len(binds) - live < live      # the second pass did reuse


def test_sweep_resolves_each_predictor_config_once_per_window(binds):
    """Ten configs, four predictor configs, warm and measured windows:
    8 live walks instead of 20."""
    assert get_kernel("EI").needs_warmup
    points = batched_sweep(CONFIGS, "EI", scale=0.05)
    assert len(points) == 10
    assert len(binds) == 8
    assert sorted(set(binds)) == ["BimodalBHT", "GShare", "TAGE"]


def _run(system, trace):
    """``system.run(trace)``, where a vector op may end it."""
    try:
        system.run(trace)
    except ValueError as exc:
        assert "no vector unit" in str(exc)


def _live_and_reused(cfg, trace, prepare):
    """Run *trace* on a fresh system after *prepare(system)*, once with
    the caches cold and once after another system of *cfg* ran it whole
    twice; returns both checkpoint digests."""
    out = []
    for warm_cache in (False, True):
        memo.clear_caches()
        if warm_cache:
            donor = System(cfg)
            _run(donor, trace)
            _run(donor, trace)
        system = System(cfg)
        prepare(system)
        _run(system, trace)
        out.append(system.save_checkpoint().digest)
    return out


def test_no_reuse_after_restore(binds):
    cfg = get_config("MediumBOOM")
    trace = _trace("CS1")
    donor = System(cfg)
    donor.run(_trace("EI"))
    snap = donor.save_checkpoint()           # tables trained on another trace
    before = len(binds)
    live, reused = _live_and_reused(cfg, trace, lambda s: s.restore(snap))
    assert live == reused
    assert len(binds) - before == 1 + 2 + 1  # the restored runs walk live


def test_no_reuse_after_a_chunked_window(binds):
    cfg = get_config("Rocket1").with_(ncores=1)
    trace = _trace("CS1")

    def chunked(system):
        system.run_parallel([trace], chunk=256)

    live, reused = _live_and_reused(cfg, trace, chunked)
    assert live == reused
    chunks = -(-len(trace) // 256)
    # every chunk and the whole run after them walk live, in both passes
    assert len(binds) == 2 * (chunks + 1) + 2


def _vector_in_the_middle():
    b = TraceBuilder()
    for i in range(40):
        b.alu(5, 5, 6)
        b.branch(taken=bool(i % 3), src1=5, target=0x1_0000)
    b.vfma(42, 40, 41)
    for i in range(40):
        b.branch(taken=bool(i % 2), src1=5, target=0x1_0000)
    trace = b.build()
    memo.trace_digest(trace)
    return trace


def test_no_reuse_of_a_run_cut_short_by_a_vector_op(binds):
    trace = _vector_in_the_middle()
    cfg = get_config("MediumBOOM")
    live, reused = _live_and_reused(cfg, trace, lambda s: None)
    assert live == reused
    assert len(binds) == 4                   # nothing was stored to reuse
    with pytest.raises(ValueError, match="no vector unit"):
        System(cfg).run(trace)


def test_a_window_with_vector_ops_is_not_reused_by_a_core_that_refuses(
        binds):
    """A core with a vector unit walks and stores the whole trace; one
    without must stop at the vector op instead of taking that window."""
    trace = _vector_in_the_middle()
    scalar = get_config("Rocket1")
    vector = scalar.with_(inorder=dataclasses.replace(
        scalar.inorder, vector=VectorConfig()))
    cold = System(scalar)
    _run(cold, trace)
    memo.clear_caches()
    System(vector).run(trace)
    before = len(binds)
    system = System(scalar)
    _run(system, trace)
    assert len(binds) - before == 1
    assert system.save_checkpoint().digest == cold.save_checkpoint().digest


def test_reuse_computes_no_digest():
    trace = get_kernel("CS1").build(scale=0.05, seed=0)
    System(get_config("Rocket1")).run(trace)
    assert trace._digest is None


def test_clear_caches_empties_the_window_cache():
    cfg = get_config("Rocket1")
    trace = _trace("CS1")
    system = System(cfg)
    system.run(trace)
    key = system.tiles[0].core.bru._lineage
    assert key is not None and memo.window_get(key) is not None
    memo.clear_caches()
    assert memo.window_get(key) is None


def _calls_without_returns():
    """Calls that never return, so a run ends with a full RAS."""
    b = TraceBuilder()
    for i in range(40):
        b.call(0x2_0000 + 64 * i)
        b.branch(taken=bool(i % 3), src1=5, target=0x1_0000 + 8 * i)
        b.alu(5, 5, 6)
    trace = b.build()
    memo.trace_digest(trace)
    return trace


def test_checkpoint_of_a_reused_run_equals_a_live_one(binds):
    cfg = get_config("LargeBOOM")
    trace = _calls_without_returns()
    live = System(cfg)
    live.run(trace)
    reused = System(cfg)
    reused.run(trace)                        # a hit on live's window
    assert len(binds) == 1
    blob = reused.save_checkpoint().to_bytes()
    assert blob == live.save_checkpoint().to_bytes()
    assert b"_lineage" not in blob


@pytest.mark.parametrize("kind", ["rocket", "gshare", "boom"])
def test_a_walk_changes_only_the_declared_state(kind):
    """Reuse replays each predictor's declared ``TABLES`` and
    ``REGISTERS`` only, so a live walk may change nothing else that a
    checkpoint captures of the direction predictor, its base or the BTB."""
    unit = build_branch_unit(BranchPredictorConfig(kind=kind))
    parts = [p for p in (unit.direction, getattr(unit.direction, "base",
                                                 None), unit.btb) if p]
    before = [_grab(p) for p in parts]
    resolve, close = unit.bind()
    for i in range(3000):
        pc = 0x1000 + 4 * (i * 7919 % 613)
        op = (6, 6, 6, 7, 8, 9)[i * 31 % 6]
        resolve(op, pc, bool(i * 2654435761 >> 7 & 1), 0x8000 + 4 * (i % 97))
    close()
    for part, old in zip(parts, before):
        declared = set(part.TABLES) | set(part.REGISTERS)
        new = _grab(part)
        changed = {k for k in new if new[k] != old[k]}
        assert changed and changed <= declared, type(part).__name__
        assert all(type(getattr(part, k)) is list for k in part.TABLES)
        assert all(type(getattr(part, k)) is int for k in part.REGISTERS)
