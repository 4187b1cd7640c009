"""OccupancyTimeline tests: earliest-fit booking under out-of-order requests."""

import copy
import random
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAM, DRAMConfig, DRAMTimings
from repro.mem.hierarchy import HierarchyConfig, Uncore
from repro.mem.timeline import OccupancyTimeline

from ..conftest import Bound, MemoryPort, uncore_call


def test_empty_reserve_starts_on_time():
    t = OccupancyTimeline()
    assert t.reserve(100, 5) == 100
    assert t._ends[-1] == 105


def test_back_to_back_serialises():
    t = OccupancyTimeline()
    assert t.reserve(0, 4) == 0
    assert t.reserve(0, 4) == 4
    assert t.reserve(0, 4) == 8


def test_out_of_order_requests_use_real_gaps():
    """The phantom-contention fix: a lagging requester slots in *before*
    a reservation made far in its future."""
    t = OccupancyTimeline()
    t.reserve(1000, 10)       # a far-ahead rank books [1000, 1010)
    start = t.reserve(50, 10)  # a lagging rank must not wait for it
    assert start == 50


def test_gap_too_small_is_skipped():
    t = OccupancyTimeline()
    t.reserve(10, 10)   # [10, 20)
    t.reserve(25, 10)   # [25, 35)
    # a 10-wide request at t=12: gap [20, 25) is too small -> lands at 35
    assert t.reserve(12, 10) == 35


def test_exact_fit_gap_is_used():
    t = OccupancyTimeline()
    t.reserve(10, 10)   # [10, 20)
    t.reserve(30, 10)   # [30, 40)
    assert t.reserve(0, 10) == 0    # [0, 10) exact fit before everything
    assert t.reserve(15, 10) == 20  # [20, 30) exact fit between


def test_zero_duration_is_free():
    t = OccupancyTimeline()
    t.reserve(0, 100)
    assert t.reserve(50, 0) == 50


def test_pruning_bounds_memory():
    t = OccupancyTimeline(max_intervals=16)
    for i in range(1000):
        t.reserve(i * 10, 5)
    assert len(t._starts) == len(t._ends) <= 16


def test_validation():
    with pytest.raises(ValueError):
        OccupancyTimeline(max_intervals=2)


@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 50)),
                min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_reservations_never_overlap(requests):
    """Property: booked intervals are pairwise disjoint and each starts at
    or after its requested time."""
    t = OccupancyTimeline(max_intervals=10_000)
    booked = []
    for time, dur in requests:
        start = t.reserve(time, dur)
        assert start >= time
        booked.append((start, start + dur))
    booked.sort()
    for (s1, e1), (s2, e2) in zip(booked, booked[1:]):
        assert e1 <= s2, f"overlap: [{s1},{e1}) and [{s2},{e2})"


def _list_reserve(starts, ends, max_intervals, time, duration):
    """The list-backed ``reserve`` that trimmed after every insert: the
    reference the bounded deques must match booking for booking."""
    if duration <= 0:
        return float(time)
    t = float(time)
    i = bisect_left(starts, t)
    if i > 0 and ends[i - 1] > t:
        t = ends[i - 1]
    while i < len(starts) and starts[i] < t + duration:
        if ends[i] > t:
            t = ends[i]
        i += 1
    starts.insert(i, t)
    ends.insert(i, t + duration)
    if len(starts) > max_intervals:
        drop = len(starts) - max_intervals
        del starts[:drop]
        del ends[:drop]
    return t


@given(st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0, 3, 400]),
                          st.integers(0, 30)), min_size=1, max_size=120))
@example([(10, 0, 5)] * 9 + [(0, 400, 4)])  # full, then before it all
@settings(max_examples=200, deadline=None)
def test_bounded_deque_matches_list_and_trim(bookings):
    """Random bookings on a clock that drifts forward, each requested
    0, 3 or 400 units in its past: tail appends, gap fills, and (once
    eight intervals are held) bookings before the whole history."""
    t = OccupancyTimeline(max_intervals=8)
    starts, ends = [], []
    clock = 0
    for step, back, duration in bookings:
        clock += step
        when = max(0, clock - back)
        assert t.reserve(when, duration) == _list_reserve(
            starts, ends, 8, when, duration)
        assert list(t._starts) == starts and list(t._ends) == ends
        assert len(t._starts) == len(t._ends) <= 8


def _history(rng, n, at):
    """*n* disjoint intervals, ascending, the last one holding *at*
    (from its start on); the earlier ones end at or before the next
    starts, with or without a gap, on integer or half-unit bounds."""
    def span():
        return rng.choice((rng.randrange(1, 40), rng.randrange(1, 80) / 2))
    if not n:
        return [], []
    start = at - rng.choice((0, 0.5, span()))
    starts, ends = [start], [at + rng.choice((0.5, 1, span()))]
    for _ in range(n - 1):
        end = starts[0] - rng.choice((0, 0, span()))
        starts.insert(0, end - span())
        ends.insert(0, end)
    return starts, ends


def _cache_bank(at):
    """A cache whose one bank timeline a request at *at* books at *at*:
    (timeline, duration, request, conflict cycles)."""
    cache = Cache(CacheConfig(sets=16, ways=2, cycle_time=3))
    port = Bound(cache, MemoryPort(50).access)
    return (cache._bank_free[0], 3, lambda: port.access(0x4000, at),
            lambda: cache.stats.bank_conflict_cycles)


def _bus(at):
    uncore = Uncore(HierarchyConfig(
        l1i=CacheConfig(sets=16, ways=2), l1d=CacheConfig(sets=16, ways=2),
        l2=CacheConfig(sets=64, ways=4), core_ghz=1.0))
    bus = uncore.bus
    return (bus._timeline, bus.cfg.beats(64) / bus.cfg.clock_ratio,
            lambda: uncore_call(uncore, 0, 0x4000, at),
            lambda: bus.stats.contention_cycles)


def _dram_channel(at):
    """A DRAM whose channel bus a read issued so that its array access
    ends at *at* books at *at*; the channel bus counts no conflicts."""
    dram = DRAM(DRAMConfig(timings=DRAMTimings(tREFI=0)), core_ghz=1.0)
    # a fresh bank's row miss, no refresh: the array access ends this
    # long after issue
    lead = dram._cCTRL + dram._cRCD + dram._cCAS
    port = Bound(dram)
    return (dram._chan_bus[0], dram._cXFER,
            lambda: port.access(0x4000, at - lead), None)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("resource", [_cache_bank, _bus, _dram_channel])
def test_bound_walks_book_the_last_interval_as_reserve_does(resource, seed):
    """A request inside the last interval, ``[_starts[-1], _ends[-1])``,
    booked by a bound walk (no ``reserve`` call) lands where ``reserve``
    puts it, leaves the same intervals and counts the same conflict, on
    empty, partial and full (512-interval) timelines."""
    rng = random.Random(seed)
    for n in (0, 1, 2, rng.randrange(3, 512), 511, 512, 512):
        at = 1_000_000 + rng.randrange(0, 1000)
        timeline, duration, request, conflicts = resource(at)
        starts, ends = _history(rng, n, at)
        timeline._starts.extend(starts)
        timeline._ends.extend(ends)
        assert n == 0 or starts[-1] <= at < ends[-1]
        ref = copy.deepcopy(timeline)
        booked = ref.reserve(at, duration)
        request()
        assert list(timeline._starts) == list(ref._starts)
        assert list(timeline._ends) == list(ref._ends)
        assert timeline._starts[-1] == booked
        if conflicts is not None:
            assert conflicts() == int(booked - at)
