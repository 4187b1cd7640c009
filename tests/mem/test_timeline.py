"""OccupancyTimeline tests: earliest-fit booking under out-of-order requests."""

from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.timeline import OccupancyTimeline


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
