"""Lightweight MSI-style snoop directory for multi-tile timing.

The workloads in this study are MPI programs (private address spaces per
rank), so inter-tile sharing is limited to runtime structures; we still
model coherence because stores to lines cached by other tiles must pay an
invalidation round-trip through the shared level, and the paper's
multi-core runs depend on that path existing.

The directory tracks, per line, the set of tiles that have installed it
since the last write, and charges an invalidate latency when ownership
changes hands.  Entries are pruned lazily to bound memory.

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

    def reset(self) -> None:
        self.__init__()


class SnoopDirectory:
    """Tracks sharers per line and prices invalidations.

    ``observe(tile, line, is_store, time)`` returns extra latency (cycles)
    for coherence actions triggered by this access.
    """

    def __init__(self, invalidate_latency: int = 24, max_lines: int = 1 << 16) -> None:
        if invalidate_latency < 0:
            raise ValueError("invalidate_latency must be non-negative")
        self.invalidate_latency = int(invalidate_latency)
        self.max_lines = int(max_lines)
        self.stats = CoherenceStats()
        self._sharers: dict[int, int] = {}  # line -> bitmask of tile ids
        self._owner: dict[int, int] = {}    # line -> exclusive owner tile

    def observe(self, tile: int, line: int, is_store: bool) -> int:
        """Record an access; return added coherence latency."""
        bit = 1 << tile
        extra = 0
        sharers = self._sharers.get(line, 0)
        if is_store:
            others = sharers & ~bit
            if others:
                # invalidate all other sharers
                self.stats.invalidations += bin(others).count("1")
                extra = self.invalidate_latency
            prev_owner = self._owner.get(line)
            if prev_owner is not None and prev_owner != tile:
                self.stats.ownership_changes += 1
                extra = max(extra, self.invalidate_latency)
            self._sharers[line] = bit
            self._owner[line] = tile
        else:
            if line in self._owner and self._owner[line] != tile:
                # downgrade M -> S at the owner: one round trip
                self.stats.ownership_changes += 1
                del self._owner[line]
                extra = self.invalidate_latency
            self._sharers[line] = sharers | bit
        if len(self._sharers) > self.max_lines:
            self._prune()
        return extra

    def sharers_of(self, line: int) -> int:
        """Bitmask of tiles currently tracked as sharing *line*."""
        return self._sharers.get(line, 0)

    def _prune(self) -> None:
        # Drop half the entries (oldest-inserted first: dicts are ordered).
        drop = len(self._sharers) // 2
        for key in list(self._sharers)[:drop]:
            self._sharers.pop(key, None)
            self._owner.pop(key, None)
