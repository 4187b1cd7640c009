"""Memory-hierarchy assembly: per-tile L1s/TLBs over a shared uncore.

Layout mirrors the paper's systems (Tables 4/5):

* per tile: L1I + L1D (+ I/D TLBs, + a stride prefetcher on silicon)
* shared: system bus -> banked L2 -> optional LLC (one slice per memory
  channel, FireSim-style) -> DRAM

The :class:`Uncore` is shared between tiles, so multi-core contention
appears naturally in bus/L2-bank/DRAM-channel occupancy.

One walk
--------

Every component keeps its own state, config and stats; the access path
is a chain of closures bound over that state, one per level, each
calling the next directly.  :meth:`TilePort.bind` is the one composer;
``InOrderCore.run`` and ``OoOCore.run`` call it once per run: TLB -> L1 -> (prefetcher) -> bus -> directory -> L2 ->
(LLC slice ->) DRAM, built from :func:`~repro.mem.tlb.bind_entry`,
:meth:`Cache.bind <repro.mem.cache.Cache.bind>`,
:meth:`StridePrefetcher.bind <repro.mem.prefetch.StridePrefetcher.bind>`,
:meth:`Uncore.bind` (the bus and directory step, fused) and
:meth:`DRAM.bind <repro.mem.dram.DRAM.bind>`.  Tables, dicts and
timelines are used in place, so binding copies nothing; counters live
in locals until ``close``, which must run exactly once, even when the
run raises.  At most one bind of a system may be open at a time: the
shared levels' locals would otherwise fork.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bus import BusConfig, SystemBus
from .cache import Cache, CacheConfig
from .coherence import SnoopDirectory
from .dram import DRAM, DRAMConfig
from .llc import make_llc_slices
from .prefetch import PrefetcherConfig, StridePrefetcher
from .tlb import TLB, TLBConfig, TwoLevelTLB, bind_entry

__all__ = ["HierarchyConfig", "Uncore", "TilePort"]


@dataclass(frozen=True)
class HierarchyConfig:
    """Full description of a system's memory hierarchy."""

    l1i: CacheConfig = CacheConfig(sets=64, ways=8, hit_latency=1)
    l1d: CacheConfig = CacheConfig(sets=64, ways=8, hit_latency=2)
    l2: CacheConfig = CacheConfig(sets=1024, ways=8, hit_latency=14, banks=1, mshrs=8)
    bus: BusConfig = BusConfig(width_bits=64)
    dram: DRAMConfig = DRAMConfig()
    itlb: TLBConfig = TLBConfig(entries=32)
    dtlb: TLBConfig = TLBConfig(entries=32)
    #: optional BOOM-style L2 TLB (entries; None = absent)
    l2_tlb_entries: int | None = None
    #: LLC size in bytes; None/0 = no LLC (Rocket systems have none)
    llc_bytes: int | None = None
    llc_simplified: bool = True      #: FireSim SRAM-like LLC vs realistic
    llc_slices: int = 1              #: one slice per memory channel
    llc_latency: int = 4             #: hit latency of the simplified LLC
    core_ghz: float = 1.6


class Uncore:
    """Shared portion of the hierarchy: bus, L2, LLC slices, DRAM."""

    def __init__(self, cfg: HierarchyConfig) -> None:
        self.cfg = cfg
        # DRAM backing: one model per LLC slice, or a single multi-channel
        # model when there is no LLC.
        if cfg.llc_bytes:
            nsl = cfg.llc_slices
            if cfg.dram.channels % nsl:
                raise ValueError(
                    f"{cfg.dram.channels} DRAM channels cannot split over "
                    f"{nsl} LLC slices"
                )
            per_chan = replace(cfg.dram, channels=cfg.dram.channels // nsl)
            self.drams = [DRAM(per_chan, cfg.core_ghz) for _ in range(nsl)]
            self.llc = make_llc_slices(cfg.llc_bytes, nsl, cfg.llc_simplified,
                                       cfg.llc_latency)
        else:
            self.drams = [DRAM(cfg.dram, cfg.core_ghz)]
            self.llc = None
        self.l2 = Cache(cfg.l2, name="l2")
        self.bus = SystemBus(cfg.bus)
        self.directory = SnoopDirectory()
        self._line = cfg.l1d.line_bytes

    def bind(self, tile_id: int):
        """Bind the shared levels for requests from tile *tile_id*.

        Returns ``(access, l2_access, close)``: ``access(addr, time,
        is_store)`` is an L1 miss's path — bus, directory, L2, then the
        LLC slice that owns the line (if any) and its DRAM; ``l2_access``
        enters at the L2 (page-table walks).  The bus transfer and the
        directory lookup are fused into ``access``; a bus booking at or
        after the timeline's last start appends at its tail (at the last
        end, if it falls inside that interval).
        """
        if self.llc is None:
            below, dram_close = self.drams[0].bind()
            closes = [dram_close]
        else:
            slices, closes = [], []
            for sl, dram in zip(self.llc.slices, self.drams):
                dram_access, dram_close = dram.bind()
                sl_access, sl_close = sl.bind(dram_access)
                slices.append(sl_access)
                closes += (sl_close, dram_close)
            llc_line = self.llc._line
            nsl = len(slices)

            def below(addr, time, is_store):
                return slices[(addr // llc_line) % nsl](addr, time, is_store)
        l2_access, l2_close = self.l2.bind(below)
        closes.append(l2_close)

        bus = self.bus
        bus_st = bus.stats
        line_bytes = self._line
        bus_occ = bus.cfg.beats(line_bytes) / bus.cfg.clock_ratio
        bus_arb = bus.cfg.arbitration_latency
        bus_tl = bus._timeline
        bus_starts = bus_tl._starts
        bus_ends = bus_tl._ends
        bus_reserve = bus_tl.reserve
        n_transfers = 0
        directory = self.directory
        dst = directory.stats
        shr = directory._sharers
        own = directory._owner
        inv_lat = directory.invalidate_latency
        max_lines = directory.max_lines
        dir_prune = directory._prune
        bit = 1 << tile_id

        def access(addr, time, is_store):
            nonlocal n_transfers
            # the bus: one line transfer
            n_transfers += 1
            start = float(time)
            if not bus_ends or start >= bus_ends[-1]:
                bus_starts.append(start)
                bus_ends.append(start + bus_occ)
            elif start >= bus_starts[-1]:
                # inside the last interval: booked right after it
                start = bus_ends[-1]
                bus_starts.append(start)
                bus_ends.append(start + bus_occ)
                bus_st.contention_cycles += int(start - time)
            else:
                start = bus_reserve(start, bus_occ)
                if start > time:
                    bus_st.contention_cycles += int(start - time)
            t = int(start + bus_arb + bus_occ)
            # the directory: a store invalidates the other sharers and
            # takes ownership; a load downgrades another tile's ownership
            dline = addr // line_bytes
            sharers = shr.get(dline, 0)
            if is_store:
                extra = 0
                others = sharers & ~bit
                if others:
                    dst.invalidations += bin(others).count("1")
                    extra = inv_lat
                prev_owner = own.get(dline)
                if prev_owner is not None and prev_owner != tile_id:
                    dst.ownership_changes += 1
                    if inv_lat > extra:
                        extra = inv_lat
                shr[dline] = bit
                own[dline] = tile_id
                t += extra
            else:
                if dline in own and own[dline] != tile_id:
                    dst.ownership_changes += 1
                    del own[dline]
                    t += inv_lat
                shr[dline] = sharers | bit
            if len(shr) > max_lines:
                dir_prune()
            return l2_access(addr, t, is_store)

        def close():
            for c in closes:
                c()
            bus_st.transfers += n_transfers

        return access, l2_access, close


class TilePort:
    """Per-tile view of the hierarchy: private L1s and TLBs over the uncore.

    With a *prefetcher* config the port carries a stride prefetcher that
    observes its data accesses and fills its L1D (silicon models have
    one; FireSim's Rocket/BOOM tiles do not).
    """

    def __init__(self, uncore: Uncore, tile_id: int = 0,
                 prefetcher: PrefetcherConfig | None = None) -> None:
        cfg = uncore.cfg
        self.uncore = uncore
        self.tile_id = tile_id
        self.l1i = Cache(cfg.l1i, name=f"tile{tile_id}.l1i")
        self.l1d = Cache(cfg.l1d, name=f"tile{tile_id}.l1d")
        self.itlb = TLB(cfg.itlb, name=f"tile{tile_id}.itlb")
        if cfg.l2_tlb_entries:
            self.dtlb: TLB | TwoLevelTLB = TwoLevelTLB(
                cfg.dtlb,
                TLBConfig(entries=cfg.l2_tlb_entries, assoc=1),
                name=f"tile{tile_id}.dtlb",
            )
        else:
            self.dtlb = TLB(cfg.dtlb, name=f"tile{tile_id}.dtlb")
        self.prefetcher = (StridePrefetcher(prefetcher, cfg.l1d.line_bytes)
                           if prefetcher is not None else None)

    def bind(self):
        """Bind the whole walk for this tile; the one composer.

        Returns ``(dload, dstore, ifetch, close)``: each entry point
        takes ``(addr, time)`` and returns the completion time.  A core
        loop binds once per run and calls ``close`` in ``finally``;
        ``close`` adds the counters the closures kept in locals to the
        stats objects and must run exactly once.  Page-table walks read
        through the L2.
        """
        uncore_access, l2_access, uncore_close = self.uncore.bind(self.tile_id)
        l1d_access, l1d_close = self.l1d.bind(uncore_access)
        l1i_access, l1i_close = self.l1i.bind(uncore_access)
        observe = (self.prefetcher.bind(self.l1d.contains, l1d_access)
                   if self.prefetcher is not None else None)
        dload, dload_close = bind_entry(
            self.dtlb, l2_access, l1d_access, False, observe)
        dstore, dstore_close = bind_entry(
            self.dtlb, l2_access, l1d_access, True, observe)
        ifetch, ifetch_close = bind_entry(
            self.itlb, l2_access, l1i_access, False, None)

        def close():
            for c in (dload_close, dstore_close, ifetch_close, l1i_close,
                      l1d_close, uncore_close):
                c()

        return dload, dstore, ifetch, close
