"""Lightweight MSI-style snoop directory for multi-tile timing.

The workloads in this study are MPI programs (private address spaces per
rank), so inter-tile sharing is limited to runtime structures; we still
model coherence because stores to lines cached by other tiles must pay an
invalidation round-trip through the shared level, and the paper's
multi-core runs depend on that path existing.

The directory tracks, per line, the set of tiles that have installed it
since the last write, and charges an invalidate latency when ownership
changes hands.  Entries are pruned lazily to bound memory.  The
directory holds that state; the lookup is one step of the walk
:meth:`repro.mem.hierarchy.Uncore.bind` binds, right after the bus.

Known limitation: the directory observes only traffic that reaches the
shared level.  Store *misses* fill with plain reads (not
read-for-ownership), and store *hits* on lines a tile already holds never
leave the L1 — so the invalidation charge fires only for writes the L1
actually forwards (dirty writebacks).  The study's
MPI workloads never share writable lines, so this path is intentionally
inert; implement RFO fills before using the directory for shared-memory
(OpenMP-style) workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SnoopDirectory", "CoherenceStats"]


@dataclass
class CoherenceStats:
    invalidations: int = 0
    ownership_changes: int = 0
    sharers_tracked: int = 0


class SnoopDirectory:
    """Tracks sharers per line and prices invalidations.

    A store from a tile invalidates every other sharer and takes
    ownership; a load downgrades another tile's ownership.  Either
    action costs ``invalidate_latency`` cycles.
    """

    def __init__(self, invalidate_latency: int = 24, max_lines: int = 1 << 16) -> None:
        if invalidate_latency < 0:
            raise ValueError("invalidate_latency must be non-negative")
        self.invalidate_latency = int(invalidate_latency)
        self.max_lines = int(max_lines)
        self.stats = CoherenceStats()
        self._sharers: dict[int, int] = {}  # line -> bitmask of tile ids
        self._owner: dict[int, int] = {}    # line -> exclusive owner tile

    def _prune(self) -> None:
        # Drop half the entries (oldest-inserted first: dicts are ordered).
        drop = len(self._sharers) // 2
        for key in list(self._sharers)[:drop]:
            self._sharers.pop(key, None)
            self._owner.pop(key, None)
