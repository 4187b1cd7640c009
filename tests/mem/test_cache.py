"""Unit tests for the set-associative cache timing model."""

import pytest

from repro.mem.cache import Cache, CacheConfig

from ..conftest import Bound, MemoryPort


def make(sets=4, ways=2, latency=100, **kw):
    mem = MemoryPort(latency=latency)
    cache = Cache(CacheConfig(sets=sets, ways=ways, **kw))
    return Bound(cache, mem.access), mem


def test_cold_miss_then_hit():
    c, mem = make()
    t1 = c.access(0x1000, 0)
    assert t1 >= 100  # went to memory
    t2 = c.access(0x1000, t1)
    assert t2 == t1 + c.cfg.hit_latency
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_same_line_different_offsets_hit():
    c, _ = make()
    t = c.access(0x1000, 0)
    assert c.access(0x1010, t) == t + c.cfg.hit_latency
    # the bank is busy for cycle_time after the previous access
    t2 = t + c.cfg.cycle_time
    assert c.access(0x103F, t2) == t2 + c.cfg.hit_latency


def test_lru_eviction_order():
    c, _ = make(sets=1, ways=2)
    # fill both ways of the single set
    c.access(0 * 64, 0)
    c.access(1 * 64, 1000)
    # touch line 0 so line 1 is LRU
    c.access(0 * 64, 2000)
    # a new line evicts line 1
    c.access(2 * 64, 3000)
    assert c.contains(0 * 64)
    assert not c.contains(1 * 64)
    assert c.contains(2 * 64)


def test_capacity_exact():
    c, _ = make(sets=4, ways=2)
    # 8 distinct lines fill the cache completely
    for i in range(8):
        c.access(i * 64, i * 1000)
    assert all(c.contains(i * 64) for i in range(8))
    t = 100_000
    for i in range(8):
        assert c.access(i * 64, t) == t + c.cfg.hit_latency
        t += 10


def test_conflict_misses_in_one_set():
    c, _ = make(sets=4, ways=2)
    # lines mapping to set 0: stride = sets*line = 256
    addrs = [i * 256 for i in range(3)]  # 3 lines, 2 ways -> thrash
    t = 0
    for _ in range(4):
        for a in addrs:
            t = c.access(a, t)
    assert c.stats.misses > 3  # conflict misses beyond the cold ones


def test_writeback_on_dirty_eviction():
    c, mem = make(sets=1, ways=1)
    c.access(0, 0, is_store=True)
    base = mem.accesses
    c.access(64, 10_000)  # evicts dirty line 0
    assert c.stats.writebacks == 1
    assert mem.accesses == base + 2  # fill + writeback


def test_clean_eviction_no_writeback():
    c, mem = make(sets=1, ways=1)
    c.access(0, 0)
    c.access(64, 10_000)
    assert c.stats.writebacks == 0


def test_inflight_line_hit_waits_for_fill():
    c, _ = make(latency=500)
    t1 = c.access(0x3000, 0)
    # second access to the same line issued before the fill returns: the
    # tag matches (hit) but data arrives only with the fill
    t2 = c.access(0x3008, 1)
    assert t2 == t1
    assert c.stats.hits == 1
    assert c.stats.misses == 1


def test_mshr_merge_on_conflicting_inflight_miss():
    # two misses to *different* lines that map to the same set, where the
    # second line is genuinely distinct: both allocate MSHRs
    c, _ = make(sets=4, ways=2, latency=500)
    c.access(0x0000, 0)
    c.access(0x1000, 1)
    assert c.stats.misses == 2


def test_mshr_limit_stalls():
    c, _ = make(sets=16, ways=2, mshrs=2, latency=500)
    # 4 distinct-line misses at t=0: only 2 MSHRs -> 3rd/4th stall
    finishes = [c.access(i * 64, 0) for i in range(4)]
    assert finishes[2] > finishes[0]
    assert c.stats.mshr_stall_cycles > 0


def test_bank_conflicts_counted():
    c, _ = make(sets=8, ways=2, banks=2, cycle_time=2)
    c.access(0 * 64, 0)
    c.access(0 * 64, 10_000)
    c.access(2 * 64, 10_000)  # same bank (line 2 % 2 == 0), same time
    assert c.stats.bank_conflict_cycles > 0


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(sets=3)
    with pytest.raises(ValueError):
        CacheConfig(sets=0)
    with pytest.raises(ValueError):
        CacheConfig(line_bytes=48)


def test_size_bytes():
    assert CacheConfig(sets=64, ways=8, line_bytes=64).size_bytes == 32 * 1024


def test_miss_rate_stat():
    c, _ = make()
    c.access(0, 0)
    c.access(0, 1000)
    assert c.stats.miss_rate == pytest.approx(0.5)
