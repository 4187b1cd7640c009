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


class Cache:
    """One level of a write-back, write-allocate set-associative cache."""

    def __init__(self, cfg: CacheConfig, next_level, name: str = "cache") -> None:
        self.cfg = cfg
        self.next_level = next_level
        self.name = name
        self.stats = CacheStats()
        self._line_shift = cfg.line_bytes.bit_length() - 1
        self._set_mask = cfg.sets - 1
        # per-set rows of tags (-1 = invalid), dirty bits and LRU stamps
        # (larger = more recently used), made by ``_row``; the engine
        # binds these lists live, so they are only mutated in place
        self._tags: list[list[int] | None] = [None] * cfg.sets
        self._dirty: list[list[bool] | None] = [None] * cfg.sets
        self._lru: list[list[int] | None] = [None] * cfg.sets
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

    def _row(self, set_idx: int) -> list[int]:
        """Make set *set_idx*'s rows, every way invalid; returns its tags.

        Called on a set's first access, so a cache costs what a run
        touches, not its tens of thousands of LLC sets."""
        ways = self.cfg.ways
        self._tags[set_idx] = row = [-1] * ways
        self._dirty[set_idx] = [False] * ways
        self._lru[set_idx] = [0] * ways
        return row

    def _touch(self, set_idx: int, way: int) -> None:
        self._use_counter += 1
        self._lru[set_idx][way] = self._use_counter

    def _victim(self, set_idx: int) -> int:
        """The first invalid way, else the least recently used one."""
        row = self._tags[set_idx]
        if -1 in row:
            return row.index(-1)
        lru = self._lru[set_idx]
        return lru.index(min(lru))

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
        if row is None:
            row = self._row(set_idx)
        if line in row:
            way = row.index(line)
            self._touch(set_idx, way)
            if is_store:
                self._dirty[set_idx][way] = True
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
        dirty = self._dirty[set_idx]
        if dirty[way] and row[way] != -1:
            st.writebacks += 1
            # writeback consumes next-level bandwidth but doesn't block the fill
            self.next_level.access(row[way] << self._line_shift, fill_time, True)
        row[way] = line
        dirty[way] = bool(is_store)
        self._touch(set_idx, way)
        return fill_time

    # -- introspection ------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """True if the line holding *addr* is currently resident.

        A probe makes no row: state must not depend on how often the
        prefetcher asked.
        """
        set_idx, line = self._index(addr)
        row = self._tags[set_idx]
        return row is not None and line in row

    def flush(self) -> None:
        """Invalidate all lines (does not model writeback traffic).

        The tables are cleared in place, never rebound: an engine binds
        these very lists.
        """
        for table in (self._tags, self._dirty, self._lru):
            table[:] = [None] * len(table)
        self._mshr.clear()

    def __repr__(self) -> str:
        c = self.cfg
        return (
            f"Cache({self.name}: {c.size_bytes // 1024} KiB, {c.sets}x{c.ways}, "
            f"{c.banks} banks, lat={c.hit_latency})"
        )
