"""OccupancyTimeline tests: earliest-fit booking under out-of-order requests."""

import pytest
from hypothesis import given, settings
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
