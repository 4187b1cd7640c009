"""Stride-prefetcher unit tests."""

import pytest

from repro.mem.cache import Cache, CacheConfig
from repro.mem.prefetch import PrefetcherConfig, StridePrefetcher

from ..conftest import MemoryPort


class Demand:
    """A cache over a fixed-latency memory with a stride prefetcher:
    ``access`` is one demand load through the bound cache, then the
    prefetcher's bound observe -- the order a ``TilePort`` walk uses."""

    def __init__(self, degree, table):
        self.mem = MemoryPort(latency=100)
        self.cache = Cache(CacheConfig(sets=64, ways=8, hit_latency=2))
        self.pf = StridePrefetcher(
            PrefetcherConfig(degree=degree, table_entries=table),
            self.cache.cfg.line_bytes)
        self.stats = self.cache.stats

    def access(self, addr, time):
        access, close = self.cache.bind(self.mem.access)
        observe = self.pf.bind(self.cache.contains, access)
        try:
            done = access(addr, time, False)
            observe(addr, time)
            return done
        finally:
            close()


def make(degree=2, table=16):
    demand = Demand(degree, table)
    return demand, demand.pf


def test_unit_stride_stream_converted_to_hits():
    cache, pf = make()
    t = 0
    for i in range(40):
        addr = 0x10_0000 + i * 64
        done = cache.access(addr, t)
        t = done + 60
    # after training (2 confident strides), demand accesses become hits
    assert cache.stats.hits >= 30
    assert pf.stats.issued > 20


def test_negative_stride_also_detected():
    cache, pf = make()
    t = 0
    for i in range(30):
        addr = 0x20_0000 - i * 64
        cache.access(addr, t)
        t += 120
    assert pf.stats.issued > 10


def test_random_pattern_never_triggers():
    import numpy as np

    cache, pf = make()
    rng = np.random.default_rng(0)
    t = 0
    for i in range(60):
        addr = 0x30_0000 + int(rng.integers(0, 1 << 14)) * 64 * 7
        cache.access(addr, t)
        t += 120
    assert pf.stats.issued <= 3  # accidental matches only


def test_same_line_repeats_do_not_reset_stride():
    cache, pf = make()
    t = 0
    # 8 accesses per line (8-byte elements): stride-0 noise within lines
    for i in range(160):
        addr = 0x40_0000 + i * 8
        cache.access(addr, t)
        t += 15
    assert pf.stats.issued > 5


def test_table_capacity_bounded():
    cache, pf = make(table=4)
    t = 0
    for region in range(32):
        for i in range(3):
            addr = region * (1 << 12) + i * 64 + (1 << 22)
            cache.access(addr, t)
            t += 50
    assert len(pf._table) <= 5


def test_config_validation():
    with pytest.raises(ValueError):
        PrefetcherConfig(table_entries=0)
    with pytest.raises(ValueError):
        PrefetcherConfig(degree=0)


def test_prefetch_consumes_next_level_bandwidth():
    cache, pf = make()
    mem = cache.mem
    t = 0
    for i in range(30):
        addr = 0x50_0000 + i * 64
        cache.access(addr, t)
        t += 120
    # prefetch fills reached memory (more accesses than demand misses alone)
    assert mem.accesses > cache.stats.misses - pf.stats.issued
