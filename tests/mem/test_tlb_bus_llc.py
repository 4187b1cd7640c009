"""Tests for TLB, system bus, LLC, and coherence directory models.

The bus and the directory are one fused step of ``Uncore.bind``'s walk,
so they are driven through an uncore; TLBs through ``bind_entry``.
"""

import dataclasses

import pytest

from repro.mem.bus import BusConfig
from repro.mem.cache import CacheConfig
from repro.mem.coherence import SnoopDirectory
from repro.mem.dram import DDR4_3200_4CH
from repro.mem.hierarchy import HierarchyConfig, Uncore
from repro.mem.llc import RealisticLLC, SimplifiedLLC
from repro.mem.tlb import TLB, TLBConfig, TwoLevelTLB

from ..conftest import Bound, MemoryPort, translate, uncore_call


def small_uncore(**kw):
    base = dict(l2=CacheConfig(sets=64, ways=4, hit_latency=10), core_ghz=1.0)
    base.update(kw)
    return Uncore(HierarchyConfig(**base))


# ---------------------------------------------------------------- TLB

def lookup(tlb, addr):
    """True on a first-level hit."""
    misses = tlb.stats.misses
    translate(tlb, addr, 0)
    return tlb.stats.misses == misses


def test_tlb_hit_after_fill():
    t = TLB(TLBConfig(entries=4))
    assert not lookup(t, 0x1000)
    assert lookup(t, 0x1FFF)  # same 4 KiB page
    assert not lookup(t, 0x2000)


def test_tlb_lru_capacity():
    t = TLB(TLBConfig(entries=2))
    lookup(t, 0x0000)
    lookup(t, 0x1000)
    lookup(t, 0x0000)     # touch page 0 -> page 1 is LRU
    lookup(t, 0x2000)     # evicts page 1
    assert lookup(t, 0x0000)
    assert not lookup(t, 0x1000)


def test_tlb_translate_walk_cost():
    t = TLB(TLBConfig(entries=4, walk_latency=20, walk_accesses=0))
    done = translate(t, 0x5000, 100)
    assert done == 120
    assert translate(t, 0x5000, 200) == 200  # hit, zero added latency


def test_tlb_translate_with_walker():
    t = TLB(TLBConfig(entries=4, walk_latency=10, walk_accesses=2))
    mem = MemoryPort(latency=50)
    done = translate(t, 0x7000, 0, walk=mem.access)
    assert done == 10 + 2 * 50
    assert mem.accesses == 2


def test_two_level_tlb():
    t = TwoLevelTLB(TLBConfig(entries=2), TLBConfig(entries=64, assoc=1))
    translate(t, 0x1000, 0)
    translate(t, 0x2000, 0)
    translate(t, 0x3000, 0)  # evicts 0x1000 from L1; L2 still holds it
    done = translate(t, 0x1000, 100)
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
    u64 = small_uncore(bus=BusConfig(width_bits=64))
    u128 = small_uncore(bus=BusConfig(width_bits=128))
    assert uncore_call(u128, 0, 0, 0) < uncore_call(u64, 0, 0, 0)


def test_bus_contention_serialises():
    u = small_uncore()
    access, _, close = u.bind(0)
    access(0, 0, False)
    access(64, 0, False)  # issued at the same time -> queues a line's beats
    close()
    assert u.bus.stats.contention_cycles == BusConfig().beats(64)
    assert u.bus.stats.transfers == 2


def test_bus_validation():
    with pytest.raises(ValueError):
        BusConfig(width_bits=0)
    with pytest.raises(ValueError):
        BusConfig(clock_ratio=0)


# ---------------------------------------------------------------- LLC

def test_simplified_llc_low_latency():
    mem = MemoryPort(latency=200)
    llc = Bound(SimplifiedLLC(1 << 20, latency=4), mem.access)
    t = llc.access(0x100, 0)
    assert llc.access(0x100, t) == t + 4


def test_realistic_llc_higher_latency():
    mem = MemoryPort(latency=200)
    llc = Bound(RealisticLLC(1 << 20), mem.access)
    t = llc.access(0x100, 0)
    assert llc.access(0x100, t) - t >= 30


def test_llc_bad_geometry_rejected():
    with pytest.raises(ValueError):
        SimplifiedLLC(3 * 64 * 8)  # 3 sets: not a power of two


def test_interleaved_llc_routes_by_line():
    u = small_uncore(dram=dataclasses.replace(DDR4_3200_4CH),
                     llc_bytes=4 << 20, llc_slices=4)
    _, l2_access, close = u.bind(0)
    for i in range(8):
        l2_access(i * 64, 0, False)
    close()
    assert [d.stats.reads for d in u.drams] == [2, 2, 2, 2]
    assert [s.stats.accesses for s in u.llc.slices] == [2, 2, 2, 2]
    assert sum(s.stats.misses for s in u.llc.slices) == 8


# ------------------------------------------------------------ Coherence

def test_snoop_private_lines_free():
    u = small_uncore()
    for k, is_store in enumerate((False, True, True)):
        uncore_call(u, 0, 100 * 64, 10_000 * (k + 1), is_store)
    assert u.directory.stats.invalidations == 0
    assert u.directory.stats.ownership_changes == 0


def test_snoop_store_invalidates_sharers():
    u = small_uncore()
    u.directory = SnoopDirectory(invalidate_latency=24)
    uncore_call(u, 0, 7 * 64, 10_000)
    uncore_call(u, 1, 7 * 64, 20_000)
    shared = uncore_call(u, 1, 7 * 64, 30_000, is_store=True) - 30_000
    private = uncore_call(u, 1, 7 * 64, 40_000, is_store=True) - 40_000
    assert shared - private == 24
    assert u.directory.stats.invalidations == 1


def test_snoop_read_downgrades_owner():
    u = small_uncore()
    u.directory = SnoopDirectory(invalidate_latency=10)
    uncore_call(u, 0, 9 * 64, 10_000, is_store=True)
    owned = uncore_call(u, 1, 9 * 64, 20_000) - 20_000
    shared = uncore_call(u, 1, 9 * 64, 30_000) - 30_000
    assert owned - shared == 10
    assert u.directory.stats.ownership_changes == 1


def test_snoop_prune_bounds_memory():
    u = small_uncore()
    u.directory = SnoopDirectory(max_lines=64)
    access, _, close = u.bind(0)
    for line in range(1000):
        access(line * 64, 100 * line, False)
    close()
    assert len(u.directory._sharers) <= 64 + 1
