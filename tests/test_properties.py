"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.branch import BTB, BimodalBHT, BranchUnit, ReturnAddressStack, TAGE
from repro.isa.encoding import Instr, decode, encode
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace, TraceBuilder
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAM, DRAMConfig
from repro.mem.tlb import TLB, TLBConfig

from .conftest import (Bound, MemoryPort, btb_call, predict_update, resolve,
                       translate)

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- encoding

R_TYPE = ["add", "sub", "sll", "xor", "or", "and", "mul", "div", "remu",
          "addw", "sraw", "mulw"]
I_TYPE = ["addi", "slti", "xori", "andi", "addiw", "lw", "ld", "lbu", "jalr"]


@given(
    mnem=st.sampled_from(R_TYPE),
    rd=st.integers(0, 31), rs1=st.integers(0, 31), rs2=st.integers(0, 31),
)
def test_rtype_encode_decode_roundtrip(mnem, rd, rs1, rs2):
    ins = Instr(mnem, rd=rd, rs1=rs1, rs2=rs2)
    assert decode(encode(ins)) == ins


@given(
    mnem=st.sampled_from(I_TYPE),
    rd=st.integers(0, 31), rs1=st.integers(0, 31),
    imm=st.integers(-2048, 2047),
)
def test_itype_encode_decode_roundtrip(mnem, rd, rs1, imm):
    ins = Instr(mnem, rd=rd, rs1=rs1, imm=imm)
    assert decode(encode(ins)) == ins


@given(imm=st.integers(-2048, 2046).map(lambda v: v & ~1))
def test_branch_offset_roundtrip(imm):
    ins = Instr("bne", rs1=3, rs2=4, imm=imm)
    assert decode(encode(ins)) == ins


# ---------------------------------------------------------------- traces

@given(
    n=st.integers(1, 200),
    rep=st.integers(0, 4),
)
def test_trace_repeat_and_concat_lengths(n, rep):
    b = TraceBuilder()
    for i in range(n):
        b.alu(5, 6, 7)
    t = b.build()
    assert len(t.repeat(rep)) == n * rep
    assert len(Trace.concat([t, t])) == 2 * n


@given(
    ops=st.lists(
        st.sampled_from(["alu", "load", "store", "branch_t", "branch_n"]),
        min_size=1, max_size=300,
    )
)
def test_trace_stats_consistent(ops):
    b = TraceBuilder()
    for o in ops:
        if o == "alu":
            b.alu(5, 6, 7)
        elif o == "load":
            b.load(5, 0x1000)
        elif o == "store":
            b.store(5, 0x1000)
        elif o == "branch_t":
            b.branch(True, src1=5)
        else:
            b.branch(False, src1=5)
    t = b.build()
    s = t.stats()
    assert s.total == len(ops)
    assert s.loads == ops.count("load")
    assert s.stores == ops.count("store")
    assert s.branches == ops.count("branch_t") + ops.count("branch_n")
    assert s.taken_branches == ops.count("branch_t")
    assert abs(sum(s.mix().values()) - 1.0) < 1e-9


# ---------------------------------------------------------------- caches

@st.composite
def cache_and_accesses(draw):
    sets = draw(st.sampled_from([4, 16, 64]))
    ways = draw(st.integers(1, 8))
    addrs = draw(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    return sets, ways, addrs


@given(cache_and_accesses())
@SLOW
def test_cache_determinism_and_bounds(params):
    sets, ways, addrs = params

    def run():
        c = Bound(Cache(CacheConfig(sets=sets, ways=ways)),
                  MemoryPort(latency=50).access)
        t = 0
        finishes = []
        for a in addrs:
            f = c.access(a, t)
            assert f >= t + c.cfg.hit_latency  # time moves forward
            finishes.append(f)
            t = f + 1
        resident = sum(c.contains(a) for a in {a >> 6 << 6 for a in addrs})
        return finishes, c.stats.hits, c.stats.misses, resident

    r1, r2 = run(), run()
    assert r1 == r2                      # fully deterministic
    _, hits, misses, resident = r1
    assert hits + misses == len(addrs)
    assert resident <= sets * ways       # capacity bound
    assert misses >= len({a >> 6 for a in addrs}) >= 1 or ways == 0


@given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100))
@SLOW
def test_cache_second_visit_hits_when_capacity_allows(addrs):
    """If the distinct-line working set fits, a second pass is all hits."""
    lines = {a >> 6 for a in addrs}
    c = Bound(Cache(CacheConfig(sets=64, ways=8)),
              MemoryPort(latency=50).access)
    if len(lines) > 64 * 8 // 4:  # stay far from conflict territory
        return
    t = 0
    for a in addrs:
        t = c.access(a, t) + 1
    h0 = c.stats.hits
    for a in addrs:
        t = c.access(a, t) + 1
    assert c.stats.hits - h0 == len(addrs)


@given(st.lists(st.integers(0, 1 << 20), min_size=2, max_size=150))
@SLOW
def test_cache_contains_after_access(addrs):
    c = Bound(Cache(CacheConfig(sets=16, ways=4)), MemoryPort().access)
    t = 0
    for a in addrs:
        t = c.access(a, t) + 1
        assert c.contains(a)  # most-recently-used line is always resident


# ---------------------------------------------------------------- DRAM

@given(
    st.lists(st.integers(0, 1 << 24), min_size=1, max_size=150),
    st.sampled_from([1, 2, 4]),
)
@SLOW
def test_dram_time_monotonic_and_bandwidth_bounded(addrs, channels):
    cfg = DRAMConfig(channels=channels)
    d = Bound(DRAM(cfg, core_ghz=2.0))
    finish = 0
    for a in addrs:
        f = d.access(a * 64, 0)
        assert f > 0
        finish = max(finish, f)
    seconds = finish / 2.0e9
    gbps = len(addrs) * 64 / seconds / 1e9
    pins = cfg.channels * cfg.channel_bits / 8 * cfg.data_rate_mtps / 1000.0
    assert gbps <= pins * 1.01  # can't beat the pins
    assert d.stats.row_hits + d.stats.row_misses == len(addrs)


@given(st.integers(1, 6), st.floats(0.5, 4.0))
def test_dram_idle_latency_scales_with_clock(channels, ghz):
    cfg = DRAMConfig(channels=channels)
    # one cold read: the idle latency, truncated to whole cycles
    d1 = Bound(DRAM(cfg, core_ghz=1.0)).access(0, 0)
    dx = Bound(DRAM(cfg, core_ghz=ghz)).access(0, 0)
    assert dx == pytest.approx(ghz * d1, abs=ghz + 1)


# ---------------------------------------------------------------- TLB

@given(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=200),
       st.sampled_from([4, 16, 32]))
@SLOW
def test_tlb_immediate_rehit(addrs, entries):
    t = TLB(TLBConfig(entries=entries))
    for a in addrs:
        translate(t, a, 0)
        misses = t.stats.misses
        translate(t, a, 0)
        assert t.stats.misses == misses  # just-inserted page must hit
    assert t.stats.misses <= len(addrs)


# ---------------------------------------------------------------- predictors

@given(st.lists(st.booleans(), min_size=1, max_size=400))
def test_bimodal_constant_stream_converges(outcomes):
    """On any stream, mispredicts <= total; on constant streams, at most
    a 2-step training prefix mispredicts."""
    p = BimodalBHT(64)
    wrong = 0
    for o in outcomes:
        if predict_update(p, 0x44, o) != o:
            wrong += 1
    assert wrong <= len(outcomes)
    if len(set(outcomes)) == 1:
        assert wrong <= 2


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100))
def test_btb_insert_then_lookup(pcs):
    btb = BTB(entries=64, assoc=4)
    for pc in pcs:
        btb_call(btb, "insert", pc * 4, pc * 4 + 0x100)
        assert btb_call(btb, "lookup", pc * 4) == pc * 4 + 0x100


@given(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=64))
def test_ras_within_depth_is_exact(addrs):
    bru = BranchUnit(BimodalBHT(64), BTB(), ReturnAddressStack(len(addrs)))
    for a in addrs:  # a call at a pushes a + 4
        resolve(bru, int(OpClass.CALL), a, True, 0x9000)
    for a in reversed(addrs):
        assert resolve(bru, int(OpClass.RET), 0x9000, True,
                       a + 4) == BranchUnit.CORRECT


@given(st.lists(st.booleans(), min_size=20, max_size=300))
def test_tage_never_crashes_and_counts(outcomes):
    t = TAGE(num_tables=3, table_bits=6)
    wrong = 0
    for o in outcomes:
        if predict_update(t, 0x80, o) != o:
            wrong += 1
    assert 0 <= wrong <= len(outcomes)
