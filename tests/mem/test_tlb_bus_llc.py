"""Tests for TLB, system bus, LLC, and coherence directory models."""

import pytest

from repro.mem.bus import BusConfig, SystemBus
from repro.mem.coherence import SnoopDirectory
from repro.mem.llc import InterleavedLLC, RealisticLLC, SimplifiedLLC, make_llc_slices
from repro.mem.tlb import TLB, TLBConfig, TwoLevelTLB

from ..conftest import MemoryPort


# ---------------------------------------------------------------- TLB

def test_tlb_hit_after_fill():
    t = TLB(TLBConfig(entries=4))
    assert not t.lookup(0x1000)
    assert t.lookup(0x1FFF)  # same 4 KiB page
    assert not t.lookup(0x2000)


def test_tlb_lru_capacity():
    t = TLB(TLBConfig(entries=2))
    t.lookup(0x0000)
    t.lookup(0x1000)
    t.lookup(0x0000)     # touch page 0 -> page 1 is LRU
    t.lookup(0x2000)     # evicts page 1
    assert t.lookup(0x0000)
    assert not t.lookup(0x1000)


def test_tlb_translate_walk_cost():
    t = TLB(TLBConfig(entries=4, walk_latency=20, walk_accesses=0))
    done = t.translate(0x5000, 100)
    assert done == 120
    assert t.translate(0x5000, 200) == 200  # hit, zero added latency


def test_tlb_translate_with_walker():
    t = TLB(TLBConfig(entries=4, walk_latency=10, walk_accesses=2))
    mem = MemoryPort(latency=50)
    done = t.translate(0x7000, 0, walker=mem.access)
    assert done == 10 + 2 * 50
    assert mem.accesses == 2


def test_two_level_tlb():
    t = TwoLevelTLB(TLBConfig(entries=2), TLBConfig(entries=64, assoc=1))
    t.translate(0x1000, 0)
    t.translate(0x2000, 0)
    t.translate(0x3000, 0)  # evicts 0x1000 from L1; L2 still holds it
    done = t.translate(0x1000, 100)
    assert done == 100 + t.l2_hit_latency


def test_tlb_config_validation():
    with pytest.raises(ValueError):
        TLBConfig(entries=0)
    with pytest.raises(ValueError):
        TLBConfig(entries=4, assoc=8)


# ---------------------------------------------------------------- Bus

def test_bus_beats():
    assert BusConfig(width_bits=64).beats(64) == 8
    assert BusConfig(width_bits=128).beats(64) == 4


def test_wider_bus_is_faster():
    b64 = SystemBus(BusConfig(width_bits=64))
    b128 = SystemBus(BusConfig(width_bits=128))
    assert b128.transfer(0, 64) < b64.transfer(0, 64)


def test_bus_contention_serialises():
    b = SystemBus(BusConfig(width_bits=64))
    t1 = b.transfer(0, 64)
    t2 = b.transfer(0, 64)  # issued at the same time -> queues
    assert t2 > t1
    assert b.stats.contention_cycles > 0


def test_bus_validation():
    with pytest.raises(ValueError):
        BusConfig(width_bits=0)
    with pytest.raises(ValueError):
        BusConfig(clock_ratio=0)


# ---------------------------------------------------------------- LLC

def test_simplified_llc_low_latency():
    mem = MemoryPort(latency=200)
    llc = SimplifiedLLC(1 << 20, mem, latency=4)
    t = llc.access(0x100, 0)
    assert llc.access(0x100, t) == t + 4


def test_realistic_llc_higher_latency():
    mem = MemoryPort(latency=200)
    llc = RealisticLLC(1 << 20, mem)
    t = llc.access(0x100, 0)
    assert llc.access(0x100, t) - t >= 30


def test_llc_bad_geometry_rejected():
    mem = MemoryPort()
    with pytest.raises(ValueError):
        SimplifiedLLC(3 * 64 * 8, mem)  # 3 sets: not a power of two


def test_interleaved_llc_routes_by_line():
    mems = [MemoryPort(latency=100) for _ in range(4)]
    llc = make_llc_slices(4 << 20, 4, mems)
    for i in range(8):
        llc.access(i * 64, 0)
    assert all(m.accesses == 2 for m in mems)
    assert llc.stats_accesses == 8
    assert llc.stats_misses == 8


def test_interleaved_llc_flush():
    mems = [MemoryPort() for _ in range(2)]
    llc = make_llc_slices(2 << 20, 2, mems)
    llc.access(0, 0)
    llc.flush()
    assert not any(s.contains(0) for s in llc.slices)


# ------------------------------------------------------------ Coherence

def test_snoop_private_lines_free():
    d = SnoopDirectory()
    assert d.observe(0, 100, is_store=False) == 0
    assert d.observe(0, 100, is_store=True) == 0
    assert d.observe(0, 100, is_store=True) == 0


def test_snoop_store_invalidates_sharers():
    d = SnoopDirectory(invalidate_latency=24)
    d.observe(0, 7, is_store=False)
    d.observe(1, 7, is_store=False)
    extra = d.observe(1, 7, is_store=True)
    assert extra == 24
    assert d.stats.invalidations == 1


def test_snoop_read_downgrades_owner():
    d = SnoopDirectory(invalidate_latency=10)
    d.observe(0, 9, is_store=True)
    extra = d.observe(1, 9, is_store=False)
    assert extra == 10
    assert d.stats.ownership_changes == 1


def test_snoop_prune_bounds_memory():
    d = SnoopDirectory(max_lines=64)
    for line in range(1000):
        d.observe(0, line, is_store=False)
    assert len(d._sharers) <= 64 + 1
