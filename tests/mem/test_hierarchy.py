"""Uncore/TilePort assembly tests: construction variants, miss paths,
page-table walks, and shared-state behaviour."""

import pytest

from repro.mem.cache import CacheConfig
from repro.mem.dram import DDR4_3200_4CH, DRAMConfig
from repro.mem.hierarchy import HierarchyConfig, TilePort, Uncore

from ..conftest import port_call


def dram_reads(uncore):
    return sum(d.stats.reads for d in uncore.drams)


def small_cfg(**kw):
    base = dict(
        l1i=CacheConfig(sets=16, ways=2, hit_latency=1),
        l1d=CacheConfig(sets=16, ways=2, hit_latency=2),
        l2=CacheConfig(sets=64, ways=4, hit_latency=10),
        core_ghz=1.0,
    )
    base.update(kw)
    return HierarchyConfig(**base)


def test_no_llc_single_dram():
    u = Uncore(small_cfg())
    assert u.llc is None
    assert len(u.drams) == 1


def test_llc_slices_split_channels():
    import dataclasses

    cfg = small_cfg(
        dram=dataclasses.replace(DDR4_3200_4CH),
        llc_bytes=4 << 20,
        llc_slices=4,
    )
    u = Uncore(cfg)
    assert len(u.drams) == 4
    assert all(d.cfg.channels == 1 for d in u.drams)
    assert len(u.llc.slices) == 4


def test_llc_slice_channel_mismatch_rejected():
    cfg = small_cfg(dram=DRAMConfig(channels=2), llc_bytes=4 << 20,
                    llc_slices=3)
    with pytest.raises(ValueError):
        Uncore(cfg)


def test_miss_path_reaches_dram():
    u = Uncore(small_cfg())
    port = TilePort(u, tile_id=0)
    port_call(port, "dload", 0x5000, 0)
    assert u.l2.stats.accesses == 1 or u.l2.stats.accesses >= 1
    assert dram_reads(u) >= 1


def test_l1_hit_does_not_touch_uncore():
    u = Uncore(small_cfg())
    port = TilePort(u, tile_id=0)
    t = port_call(port, "dload", 0x5000, 0)
    before = u.l2.stats.accesses
    port_call(port, "dload", 0x5000, t + 1)
    assert u.l2.stats.accesses == before


def test_page_walk_reads_through_l2():
    u = Uncore(small_cfg())
    port = TilePort(u, tile_id=0)
    before = u.l2.stats.accesses
    port_call(port, "dload", 0x9999_0000, 0)  # TLB cold: triggers a walk
    walk_accesses = u.l2.stats.accesses - before
    assert walk_accesses >= 2  # walker loads + the line fill


def test_two_tiles_share_l2_contents():
    u = Uncore(small_cfg())
    a = TilePort(u, tile_id=0)
    b = TilePort(u, tile_id=1)
    t = port_call(a, "dload", 0x7000, 0)
    dram_before = dram_reads(u)
    # misses its own L1, hits the shared L2
    port_call(b, "dload", 0x7000, t + 50)
    assert dram_reads(u) == dram_before


def test_directory_tracks_cross_tile_sharing():
    """The snoop directory records which tiles installed each line.

    Store *timing* effects are priced only for writes that reach the
    shared level (dirty writebacks) — store
    misses fill with plain reads, not RFOs; see the documented limitation
    in repro.mem.coherence.  The paper's MPI workloads never share lines,
    so the inert path is intentional."""
    u = Uncore(small_cfg())
    a = TilePort(u, tile_id=0)
    b = TilePort(u, tile_id=1)
    t = port_call(a, "dload", 0x8000, 0)
    port_call(b, "dload", 0x8000, t + 50)
    assert u.directory._sharers[0x8000 // 64] == 0b11
