"""Occupancy timelines: busy-interval tracking for shared resources.

Shared components (system bus, L2 banks, DRAM data buses) receive requests
from tiles whose local clocks are *skewed* — the MPI scheduler lets one
rank run a compute chunk ahead of another, so reservation requests do not
arrive in time order.  A single "next-free" high-water mark would charge a
lagging rank phantom contention against reservations made far in its
future; the timeline instead keeps the actual busy intervals and books
each request into the earliest real gap at or after its own time.

``_starts`` / ``_ends`` are deques bounded at ``max_intervals``, so the
oldest interval falls off the front by itself.  The bound access paths
(:meth:`repro.mem.cache.Cache.bind` and friends) book a request at or
after the last end by appending to both directly, with no trim of their
own, and call ``reserve`` only for a request that lands inside the
history.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

__all__ = ["OccupancyTimeline"]


class OccupancyTimeline:
    """Busy intervals of one serially-occupied resource.

    ``reserve(time, duration)`` books the earliest gap of *duration* that
    starts at or after *time* and returns the start.  At most
    ``max_intervals`` intervals are kept; the oldest goes first (ancient
    history; by then every tile's clock has moved past it).
    """

    __slots__ = ("_starts", "_ends", "max_intervals")

    def __init__(self, max_intervals: int = 512) -> None:
        if max_intervals < 8:
            raise ValueError("max_intervals must be >= 8")
        self._starts: deque[float] = deque(maxlen=max_intervals)
        self._ends: deque[float] = deque(maxlen=max_intervals)
        self.max_intervals = max_intervals

    def reserve(self, time: float, duration: float) -> float:
        """Book *duration* units at the earliest feasible start >= *time*."""
        if duration <= 0:
            return float(time)
        starts, ends = self._starts, self._ends
        t = float(time)
        i = bisect_left(starts, t)
        # the interval before the insertion point may still cover t
        if i > 0 and ends[i - 1] > t:
            t = ends[i - 1]
        # walk forward until a gap of `duration` opens
        while i < len(starts) and starts[i] < t + duration:
            if ends[i] > t:
                t = ends[i]
            i += 1
        if len(starts) == self.max_intervals:
            # full: the oldest interval goes, and a booking before the
            # whole history would be that oldest one itself
            if i == 0:
                return t
            starts.popleft()
            ends.popleft()
            i -= 1
        starts.insert(i, t)
        ends.insert(i, t + duration)
        return t
