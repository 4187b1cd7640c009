"""Set-associative cache timing model with banks, MSHRs, and write-back.

All times are in *core clock cycles*.  A cache forwards misses to a
``next_level`` object exposing ``access(addr, time, is_store) -> int``
(finish time); the chain bottoms out at a DRAM model from
:mod:`repro.mem.dram`.

The model tracks true tag state (hits and misses are exact for the access
stream it sees), per-bank busy times (bank conflicts), a finite MSHR pool
(miss-level parallelism limit), and dirty-victim writebacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timeline import OccupancyTimeline

__all__ = ["CacheConfig", "Cache", "CacheStats"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``mshrs`` bounds the number of outstanding line fills (miss-level
    parallelism); ``banks`` models port conflicts on the data array.
    """

    sets: int = 64
    ways: int = 8
    line_bytes: int = 64
    hit_latency: int = 2
    banks: int = 1
    mshrs: int = 4
    #: cycles a bank stays busy per access (1 = fully pipelined)
    cycle_time: int = 1

    def __post_init__(self) -> None:
        for name in ("sets", "ways", "line_bytes", "banks", "mshrs"):
            v = getattr(self, name)
            if v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.sets & (self.sets - 1):
            raise ValueError("sets must be a power of two")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")

    @property
    def size_bytes(self) -> int:
        return self.sets * self.ways * self.line_bytes


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    mshr_merges: int = 0
    mshr_stall_cycles: int = 0
    bank_conflict_cycles: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.__init__()


_INVALID = np.int64(-1)


class Cache:
    """One level of a write-back, write-allocate set-associative cache."""

    def __init__(self, cfg: CacheConfig, next_level, name: str = "cache") -> None:
        self.cfg = cfg
        self.next_level = next_level
        self.name = name
        self.stats = CacheStats()
        self._line_shift = cfg.line_bytes.bit_length() - 1
        self._set_mask = cfg.sets - 1
        # tag state: [sets, ways]
        self._tags = np.full((cfg.sets, cfg.ways), _INVALID, dtype=np.int64)
        self._dirty = np.zeros((cfg.sets, cfg.ways), dtype=bool)
        # LRU stamps: larger = more recently used
        self._lru = np.zeros((cfg.sets, cfg.ways), dtype=np.int64)
        self._use_counter = 0
        # per-bank occupancy (interval-tracked: shared caches see
        # requests from mutually-skewed tile clocks)
        self._bank_free = [OccupancyTimeline() for _ in range(cfg.banks)]
        # outstanding fills: line_addr -> fill completion time (pruned lazily)
        self._mshr: dict[int, int] = {}

    # -- helpers ----------------------------------------------------------

    def _index(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line

    def _prune_mshrs(self, now: int) -> None:
        if len(self._mshr) > 2 * self.cfg.mshrs:
            done = [a for a, t in self._mshr.items() if t <= now]
            for a in done:
                del self._mshr[a]

    def _touch(self, set_idx: int, way: int) -> None:
        self._use_counter += 1
        self._lru[set_idx, way] = self._use_counter

    def _victim(self, set_idx: int) -> int:
        """The first invalid way, else the least recently used one."""
        invalid = np.nonzero(self._tags[set_idx] == _INVALID)[0]
        if invalid.size:
            return int(invalid[0])
        return int(np.argmin(self._lru[set_idx]))

    # -- main access path ---------------------------------------------------

    def access(self, addr: int, time: int, is_store: bool = False) -> int:
        """Access *addr* at *time*; return the completion time in cycles."""
        cfg = self.cfg
        st = self.stats
        st.accesses += 1
        set_idx, line = self._index(addr)

        # bank arbitration
        bank = line % cfg.banks
        start = self._bank_free[bank].reserve(time, cfg.cycle_time)
        if start > time:
            st.bank_conflict_cycles += int(start - time)

        row = self._tags[set_idx]
        hit_ways = np.nonzero(row == line)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self._touch(set_idx, way)
            if is_store:
                self._dirty[set_idx, way] = True
            st.hits += 1
            done = start + cfg.hit_latency
            # the tag is installed at miss time, but data arrives with the
            # fill: a hit on an in-flight line waits for the fill
            pending = self._mshr.get(line << self._line_shift)
            if pending is not None and pending > done:
                return pending
            return done

        # ---- miss ----
        st.misses += 1
        tag_time = start + cfg.hit_latency  # tag check before going out

        line_base = line << self._line_shift
        pending = self._mshr.get(line_base, 0)
        if pending > tag_time:
            # secondary miss to an in-flight line: merge into existing MSHR
            st.mshr_merges += 1
            fill_time = pending
        else:
            # primary miss: need a free MSHR
            in_flight = [t for t in self._mshr.values() if t > tag_time]
            if len(in_flight) >= cfg.mshrs:
                wait_until = min(in_flight)
                st.mshr_stall_cycles += wait_until - tag_time
                tag_time = wait_until
            fill_time = self.next_level.access(line_base, tag_time, False)
            self._mshr[line_base] = fill_time
            self._prune_mshrs(tag_time)

        # victim selection & writeback
        way = self._victim(set_idx)
        if self._dirty[set_idx, way] and self._tags[set_idx, way] != _INVALID:
            st.writebacks += 1
            victim_addr = int(self._tags[set_idx, way]) << self._line_shift
            # writeback consumes next-level bandwidth but doesn't block the fill
            self.next_level.access(victim_addr, fill_time, True)
        self._tags[set_idx, way] = line
        self._dirty[set_idx, way] = bool(is_store)
        self._touch(set_idx, way)
        return fill_time

    # -- introspection ------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """True if the line holding *addr* is currently resident."""
        set_idx, line = self._index(addr)
        return bool(np.any(self._tags[set_idx] == line))

    def flush(self) -> None:
        """Invalidate all lines (does not model writeback traffic)."""
        self._tags.fill(_INVALID)
        self._dirty.fill(False)
        self._lru.fill(0)
        self._mshr.clear()

    def warm(self, addrs) -> None:
        """Install lines for *addrs* without timing side effects."""
        for a in np.asarray(addrs, dtype=np.int64).ravel():
            set_idx, line = self._index(int(a))
            row = self._tags[set_idx]
            hit = np.nonzero(row == line)[0]
            way = int(hit[0]) if hit.size else self._victim(set_idx)
            self._tags[set_idx, way] = line
            self._touch(set_idx, way)

    def resident_lines(self) -> int:
        return int(np.count_nonzero(self._tags != _INVALID))

    def __repr__(self) -> str:
        c = self.cfg
        return (
            f"Cache({self.name}: {c.size_bytes // 1024} KiB, {c.sets}x{c.ways}, "
            f"{c.banks} banks, lat={c.hit_latency})"
        )
