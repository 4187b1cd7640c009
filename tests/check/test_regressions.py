"""Pinned regressions for the divergences the differential fuzzer found.

Every test here failed on the tree before the corresponding fix; the
shrunk fuzzer programs live in ``tests/check/corpus/`` and are replayed
by ``test_corpus.py``.  These are the direct, single-subsystem forms.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest

from repro.accel import memo
from repro.accel.compile import compiled_trace
from repro.farm import Job, ResultCache, RunFarm, cache_key
from repro.isa.assembler import assemble
from repro.isa.interp import Interpreter, Memory
from repro.reliability import LockstepWatchdog, SimulationHang
from repro.soc.presets import get_config
from repro.soc.system import System

M64 = (1 << 64) - 1
CANON = 0x7FF8_0000_0000_0000


def fbits(interp: Interpreter, i: int) -> int:
    return struct.unpack("<Q", struct.pack("<d", interp.fregs[i]))[0]


def run_asm(source: str) -> Interpreter:
    it = Interpreter(assemble(source, base=0x1_0000), trace=False)
    it.run(10_000)
    return it


# -- interpreter FP semantics (satellite 1) -----------------------------------

def test_fmin_zero_tiebreak():
    it = run_asm(
        "li x5, 1\nslli x5, x5, 63\n"
        "fmv.d.x f1, x5\n"         # -0.0
        "fmv.d.x f0, x0\n"         # +0.0
        "fmin.d f2, f0, f1\n"
        "fmax.d f3, f1, f0\n"
        "ecall\n")
    assert fbits(it, 2) == 1 << 63   # fmin(+0,-0) is -0.0
    assert fbits(it, 3) == 0         # fmax(-0,+0) is +0.0


def test_fminmax_nan_handling():
    it = run_asm(
        "li x5, 2047\nslli x5, x5, 52\nori x5, x5, 1\n"  # sNaN bits
        "fmv.d.x f0, x5\n"
        "li x6, 3\nfcvt.d.l f1, x6\n"
        "fmin.d f2, f0, f1\n"      # one NaN: the other operand
        "fmax.d f3, f0, f0\n"      # both NaN: canonical quiet NaN
        "ecall\n")
    assert it.fregs[2] == 3.0
    assert fbits(it, 3) == CANON


def test_arithmetic_nan_results_are_canonical():
    it = run_asm(
        "fmv.d.x f0, x0\n"
        "fdiv.d f1, f0, f0\n"      # 0/0: x86 would give the negative NaN
        "fdiv.s f2, f0, f0\n"
        "li x5, 2047\nslli x5, x5, 52\nori x5, x5, 99\n"
        "fmv.d.x f3, x5\n"         # NaN with payload
        "fadd.d f4, f3, f3\n"      # payload must not propagate
        "fcvt.s.d f5, f3\n"
        "ecall\n")
    for i in (1, 2, 4, 5):
        assert fbits(it, i) == CANON, f"f{i}: {fbits(it, i):#x}"


def test_fcvt_of_infinity_clamps_instead_of_crashing():
    it = run_asm(
        "li x5, 2047\nslli x5, x5, 52\n"   # +inf
        "fmv.d.x f0, x5\n"
        "li x6, 1\nslli x6, x6, 63\nor x6, x6, x5\n"  # -inf
        "fmv.d.x f1, x6\n"
        "fcvt.l.d x10, f0\n"
        "fcvt.w.d x11, f0\n"
        "fcvt.l.d x12, f1\n"
        "fcvt.w.d x13, f1\n"
        "ecall\n")
    assert it.regs[10] == (1 << 63) - 1
    assert it.regs[11] == 0x7FFFFFFF
    assert it.regs[12] == 1 << 63
    assert it.regs[13] == 0xFFFFFFFF80000000  # INT32_MIN sign-extended


def test_memory_straddle_wraps_address_space():
    mem = Memory()
    mem.store(M64 - 3, 0x1122334455667788, 8)  # 4 bytes wrap past 2^64
    assert mem.load(M64 - 3, 8, signed=False) == 0x1122334455667788
    assert mem.load(0, 4, signed=False) == 0x11223344
    # the wrapped bytes must land at addresses 0..3, not at page 2^52
    assert all(p < (1 << 52) for p in mem._pages)


# -- watchdog re-arm across checkpoint/restore (satellite 3) ------------------

def _lockstep_trace():
    from repro.check import generate_program, run_program
    return run_program(generate_program(1)).trace_so_far


def test_watchdog_rearmed_after_restore():
    trace = _lockstep_trace()
    cfg = get_config("Rocket2")
    wd = LockstepWatchdog(k_quanta=1)  # a single stale read would hang
    donor = System(cfg).start_parallel([trace], quantum=64, chunk=32,
                                       watchdog=wd)
    assert donor.step(2)
    ckpt = donor.checkpoint()
    donor.run()  # pre-crash run advances far past the checkpoint
    resumed = System(cfg).restore(ckpt, [trace], watchdog=wd)
    results = resumed.run()  # pre-fix: spurious SimulationHang
    ref = System(cfg).run_parallel([trace], quantum=64, chunk=32)
    assert [r.cycles for r in results] == [r.cycles for r in ref]
    assert wd.stats.hangs == 0


def test_watchdog_treats_backward_clock_as_rearm():
    class FakeLane:
        def __init__(self, t):
            self._t = t

        def local_time(self):
            return self._t

    class FakeChannel:
        occupancy = 0

        def state(self):
            return {}

    class FakeStats:
        quanta = 0

    class FakeScheduler:
        quantum = 64
        stats = FakeStats()

        def __init__(self, lanes):
            self.lanes = lanes
            self.live_lanes = list(range(len(lanes)))
            self._live = set(self.live_lanes)
            self.channels = [FakeChannel() for _ in lanes]

    wd = LockstepWatchdog(k_quanta=1)
    lane = FakeLane(100)
    sched = FakeScheduler([lane])
    wd.observe(sched)
    lane._t = 40  # rewound under the watchdog (restore)
    wd.observe(sched)  # must re-arm, not raise
    assert wd.stats.stalled_quanta == 0
    lane._t = 40  # now a genuine stall
    with pytest.raises(SimulationHang):
        wd.observe(sched)


# -- per-trace state (digest and compiled form live on the trace) -----------

def test_trace_digest_survives_id_reuse():
    trace = _lockstep_trace()
    stale = memo.trace_digest(trace)
    del trace
    # a new trace may land on the dead one's address; its digest is its own
    other = _lockstep_trace()[:7]
    h = hashlib.sha256()
    for name in other.COLUMNS:
        arr = getattr(other, name)
        h.update(name.encode() + str(arr.dtype).encode() + arr.tobytes())
    assert memo.trace_digest(other) == h.hexdigest() != stale


def test_trace_arrays_survive_id_reuse():
    trace = _lockstep_trace()
    stale = compiled_trace(trace)
    n = len(trace)
    del trace
    # the compiled form dies with its trace; no address can resurrect it
    other = _lockstep_trace()[:7]
    fresh = compiled_trace(other)
    assert fresh is not stale and len(stale.cols["op"]) == n
    assert fresh.cols["op"] == other.op.tolist()


def test_equal_traces_share_digest_but_not_compiled_form():
    a, b = _lockstep_trace(), _lockstep_trace()
    assert a is not b
    assert memo.trace_digest(a) == memo.trace_digest(b)
    ca, cb = compiled_trace(a), compiled_trace(b)
    assert ca is not cb and ca.cols == cb.cols
    assert compiled_trace(a) is ca and compiled_trace(b) is cb


# -- farm result-cache durability (satellite 4) -------------------------------

def _job():
    return Job.kernel(get_config("Rocket1"), "MM", scale=0.05)


def test_cache_put_cleans_tmp_on_write_failure(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    job = _job()
    key = cache_key(job)

    import os as _os
    real_replace = _os.replace

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", boom)
    with pytest.raises(OSError):
        cache.put(key, job, {"cycles": 1})
    monkeypatch.setattr("os.replace", real_replace)
    assert list(tmp_path.rglob("*.tmp")) == []  # no orphan left behind
    assert cache.get(key) is None               # and no entry either


def test_torn_cache_entry_quarantined_and_rerun(tmp_path):
    cache = ResultCache(tmp_path)
    job = _job()
    key = cache_key(job)
    cache.put(key, job, {"cycles": 7})
    # crash-inject: overwrite the entry with a torn (truncated) write
    path = cache.path(key)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    assert cache.get(key) is None
    assert cache.corrupt_quarantined == 1
    assert (cache.quarantine_dir / path.name).exists()
    # the farm treats it as a miss and recomputes, then repopulates
    farm = RunFarm(workers=1, cache=cache)
    [res] = farm.run([job])
    assert res.ok and not res.from_cache
    entry = json.loads(cache.path(key).read_text())
    assert entry["key"] == key
