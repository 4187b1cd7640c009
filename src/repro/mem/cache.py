"""Set-associative cache timing model with banks, MSHRs, and write-back.

All times are in *core clock cycles*.  :meth:`Cache.bind` is the one
access path: it returns an ``access(addr, time, is_store) -> finish``
closure over the cache's own tables that forwards misses and dirty
victims to the *next_access* it is given — the next level's bound
access, bottoming out at a DRAM from :mod:`repro.mem.dram`.
:meth:`repro.mem.hierarchy.TilePort.bind` wires the levels together.

The model tracks true tag state (hits and misses are exact for the access
stream it sees), per-bank busy times (bank conflicts), a finite MSHR pool
(miss-level parallelism limit), and dirty-victim writebacks.

Tag state is two structures.  Each set is a list of its resident line
tags in LRU order, least recent first and most recent last: the row's
length is its valid-way count, a hit moves its tag to the end and a
miss in a full row evicts ``row[0]``, so no way is ever searched for by
stamp or validity.  The dirty lines of the whole cache are one ``set``
of line tags; an evicted tag found there is written back and leaves it.
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


class Cache:
    """One level of a write-back, write-allocate set-associative cache."""

    def __init__(self, cfg: CacheConfig, name: str = "cache") -> None:
        self.cfg = cfg
        self.name = name
        self.stats = CacheStats()
        self._line_shift = cfg.line_bytes.bit_length() - 1
        self._set_mask = cfg.sets - 1
        # per set, the resident line tags in LRU order (least recent
        # first, MRU last), None until the set's first access so a cache
        # costs what a run touches, not its tens of thousands of LLC
        # sets; bound walks hold these lists live, so they are only
        # mutated in place
        self._tags: list[list[int] | None] = [None] * cfg.sets
        #: line tags of the resident lines that are dirty
        self._dirty: set[int] = set()
        # per-bank occupancy (interval-tracked: shared caches see
        # requests from mutually-skewed tile clocks)
        self._bank_free = [OccupancyTimeline() for _ in range(cfg.banks)]
        # outstanding fills: line_addr -> fill completion time (pruned lazily)
        self._mshr: dict[int, int] = {}

    # -- the access path ----------------------------------------------------

    def bind(self, next_access):
        """Bind the access path over this cache's tables.

        Returns ``(access, close)``.  ``access(addr, time, is_store)``
        returns the completion time; misses and dirty victims go to
        ``next_access(line_addr, time, is_store)``.  The LRU-ordered
        rows, the dirty set, MSHRs and bank timelines are used in place;
        the stats live in locals until ``close``, which must run exactly
        once.  Two shortcuts are exact by a bound: a booking at or after
        a bank timeline's last start appends at its tail, at the last
        end or later (the bounded deque drops its oldest interval
        itself), and past ``mshr_hw`` no fill can still be outstanding.
        """
        cfg = self.cfg
        st = self.stats
        line_shift = self._line_shift
        set_mask = self._set_mask
        hit_lat = cfg.hit_latency
        ways = cfg.ways
        banks = cfg.banks
        n_mshrs = cfg.mshrs
        cyc = cfg.cycle_time
        tags, dirty = self._tags, self._dirty
        mshr = self._mshr
        #: no fill in ``mshr`` completes later than this, so a lookup at
        #: or past it finds nothing outstanding and is skipped
        mshr_hw = max(mshr.values(), default=0)
        bank_tl = self._bank_free
        bank_starts = [tl._starts for tl in bank_tl]
        bank_ends = [tl._ends for tl in bank_tl]
        # stats accumulate in locals and flush at close (same totals,
        # fewer attribute round-trips on the hottest call in the simulator)
        n_access = n_misses = n_wb = n_merges = 0
        n_conflict = 0
        n_mshr_stall = 0

        def access(addr, time, is_store):
            nonlocal n_access, n_misses, n_wb, n_merges, n_conflict, \
                n_mshr_stall, mshr_hw
            n_access += 1
            line = addr >> line_shift

            start = float(time)
            if cyc > 0:
                bank = line % banks
                ends = bank_ends[bank]
                if not ends or start >= ends[-1]:
                    # monotone arrival: what reserve() does at the tail
                    bank_starts[bank].append(start)
                    ends.append(start + cyc)
                elif start >= bank_starts[bank][-1]:
                    # inside the last interval: reserve() books right
                    # after it
                    start = ends[-1]
                    bank_starts[bank].append(start)
                    ends.append(start + cyc)
                    n_conflict += int(start - time)
                else:
                    start = bank_tl[bank].reserve(time, cyc)
                    if start > time:
                        n_conflict += int(start - time)

            row = tags[line & set_mask]
            if row is None:
                row = tags[line & set_mask] = []
            if line in row:
                if row[-1] != line:
                    row.remove(line)
                    row.append(line)
                done = start + hit_lat
                if is_store:
                    dirty.add(line)
                # the tag is installed at miss time, but data arrives
                # with the fill: a hit on an in-flight line waits for it
                if mshr_hw > done:
                    pending = mshr.get(line << line_shift)
                    if pending is not None and pending > done:
                        return pending
                return done

            n_misses += 1
            tag_time = start + hit_lat  # tag check before going out
            line_base = line << line_shift
            pending = mshr.get(line_base, 0) if mshr_hw > tag_time else 0
            if pending > tag_time:
                # secondary miss to an in-flight line: merge into its MSHR
                n_merges += 1
                fill_time = pending
            else:
                # primary miss: need a free MSHR
                if mshr_hw > tag_time and len(mshr) >= n_mshrs:
                    in_flight = [ft for ft in mshr.values() if ft > tag_time]
                    if len(in_flight) >= n_mshrs:
                        wait_until = min(in_flight)
                        n_mshr_stall += wait_until - tag_time
                        tag_time = wait_until
                fill_time = next_access(line_base, tag_time, False)
                mshr[line_base] = fill_time
                if fill_time > mshr_hw:
                    mshr_hw = fill_time
                if len(mshr) > 2 * n_mshrs:
                    for a in [a for a, ft in mshr.items() if ft <= tag_time]:
                        del mshr[a]

            if len(row) >= ways:
                vtag = row.pop(0)
                if vtag in dirty:
                    dirty.remove(vtag)
                    n_wb += 1
                    # the writeback consumes next-level bandwidth but
                    # does not block the fill
                    next_access(vtag << line_shift, fill_time, True)
            row.append(line)
            if is_store:
                dirty.add(line)
            return fill_time

        def close():
            st.accesses += n_access
            st.hits += n_access - n_misses
            st.misses += n_misses
            st.writebacks += n_wb
            st.mshr_merges += n_merges
            st.bank_conflict_cycles += n_conflict
            if n_mshr_stall:
                st.mshr_stall_cycles += n_mshr_stall

        return access, close

    # -- introspection ------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """True if the line holding *addr* is currently resident.

        A probe makes no row: state must not depend on how often the
        prefetcher asked.
        """
        line = addr >> self._line_shift
        row = self._tags[line & self._set_mask]
        return row is not None and line in row

    def __repr__(self) -> str:
        c = self.cfg
        return (
            f"Cache({self.name}: {c.size_bytes // 1024} KiB, {c.sets}x{c.ways}, "
            f"{c.banks} banks, lat={c.hit_latency})"
        )
