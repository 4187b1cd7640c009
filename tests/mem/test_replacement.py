"""Replacement tests: exact LRU fills invalid ways first."""

from repro.mem.cache import Cache, CacheConfig

from ..conftest import Bound, MemoryPort


def make(sets=1, ways=4):
    return Bound(Cache(CacheConfig(sets=sets, ways=ways)),
                 MemoryPort(latency=50).access)


def lines(*idx):
    return [i * 64 for i in idx]


def test_hits_after_cold_fill():
    c = make()
    t = 0
    for a in lines(0, 1, 2, 3):
        t = c.access(a, t) + 1
    for a in lines(0, 1, 2, 3):
        t = c.access(a, t) + 1
    assert c.stats.hits == 4
    assert c.stats.misses == 4


def test_invalid_ways_filled_first():
    c = make()
    t = 0
    for a in lines(0, 1, 2, 3):
        t = c.access(a, t) + 1
    # all four distinct lines resident: no early eviction
    assert all(c.contains(a) for a in lines(0, 1, 2, 3))
