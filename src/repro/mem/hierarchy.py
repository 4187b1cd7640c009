"""Memory-hierarchy assembly: per-tile L1s/TLBs over a shared uncore.

Layout mirrors the paper's systems (Tables 4/5):

* per tile: L1I + L1D (+ I/D TLBs)
* shared: system bus -> banked L2 -> optional LLC (one slice per memory
  channel, FireSim-style) -> DRAM

The :class:`TilePort` is what the core timing models call into; the
:class:`Uncore` is shared between tiles, so multi-core contention appears
naturally in bus/L2-bank/DRAM-channel occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bus import BusConfig, SystemBus
from .cache import Cache, CacheConfig
from .coherence import SnoopDirectory
from .dram import DRAM, DRAMConfig
from .llc import InterleavedLLC, RealisticLLC, SimplifiedLLC
from .prefetch import PrefetcherConfig, StridePrefetcher
from .tlb import TLB, TLBConfig, TwoLevelTLB

__all__ = ["HierarchyConfig", "Uncore", "TilePort", "build_uncore"]


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
            from dataclasses import replace

            per_chan = replace(cfg.dram, channels=cfg.dram.channels // nsl)
            self.drams = [DRAM(per_chan, cfg.core_ghz) for _ in range(nsl)]
            per_slice = cfg.llc_bytes // nsl
            cls_kwargs = (
                (SimplifiedLLC, {"latency": cfg.llc_latency})
                if cfg.llc_simplified
                else (RealisticLLC, {})
            )
            cls, kwargs = cls_kwargs
            self.llc = InterleavedLLC(
                [cls(per_slice, self.drams[i], name=f"llc{i}", **kwargs)
                 for i in range(nsl)]
            )
            below_l2 = self.llc
        else:
            self.drams = [DRAM(cfg.dram, cfg.core_ghz)]
            self.llc = None
            below_l2 = self.drams[0]
        self.l2 = Cache(cfg.l2, below_l2, name="l2")
        self.bus = SystemBus(cfg.bus)
        self.directory = SnoopDirectory()
        self._line = cfg.l1d.line_bytes

    def access(self, tile: int, addr: int, time: int, is_store: bool) -> int:
        """L1-miss path: bus -> L2 -> (LLC ->) DRAM. Returns finish time."""
        t = self.bus.transfer(time, self._line)
        t += self.directory.observe(tile, addr // self._line, is_store)
        return self.l2.access(addr, t, is_store)

    def dram_stats(self) -> dict[str, int]:
        return {
            "reads": sum(d.stats.reads for d in self.drams),
            "writes": sum(d.stats.writes for d in self.drams),
            "row_hits": sum(d.stats.row_hits for d in self.drams),
            "row_misses": sum(d.stats.row_misses for d in self.drams),
        }

    def reset_stats(self) -> None:
        self.l2.stats.reset()
        self.bus.stats.reset()
        for d in self.drams:
            d.stats.reset()


class _UncoreShim:
    """Adapts Uncore.access to the Cache next_level protocol.

    Module-level on purpose: a class defined per TilePort is cyclic
    garbage, so a dropped System would wait for the collector."""

    def __init__(self, uncore: Uncore, tile_id: int) -> None:
        self.access = lambda addr, time, is_store=False: uncore.access(
            tile_id, addr, time, is_store
        )


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
        shim = _UncoreShim(uncore, tile_id)
        self.l1i = Cache(cfg.l1i, shim, name=f"tile{tile_id}.l1i")
        self.l1d = Cache(cfg.l1d, shim, name=f"tile{tile_id}.l1d")
        self.itlb = TLB(cfg.itlb, name=f"tile{tile_id}.itlb")
        if cfg.l2_tlb_entries:
            self.dtlb: TLB | TwoLevelTLB = TwoLevelTLB(
                cfg.dtlb,
                TLBConfig(entries=cfg.l2_tlb_entries, assoc=1),
                name=f"tile{tile_id}.dtlb",
            )
        else:
            self.dtlb = TLB(cfg.dtlb, name=f"tile{tile_id}.dtlb")
        # page-table walks read through the uncore (they hit in L2 mostly)
        self._walker = lambda addr, time: uncore.l2.access(addr, time, False)
        self.prefetcher = (StridePrefetcher(prefetcher, self.l1d)
                           if prefetcher is not None else None)

    # -- core-facing API ------------------------------------------------------

    def dload(self, addr: int, time: int) -> int:
        t = self.dtlb.translate(addr, time, self._walker)
        done = self.l1d.access(addr, t, is_store=False)
        if self.prefetcher is not None:
            self.prefetcher.observe(addr, t)
        return done

    def dstore(self, addr: int, time: int) -> int:
        t = self.dtlb.translate(addr, time, self._walker)
        done = self.l1d.access(addr, t, is_store=True)
        if self.prefetcher is not None:
            self.prefetcher.observe(addr, t)
        return done

    def ifetch(self, addr: int, time: int) -> int:
        t = self.itlb.translate(addr, time, self._walker)
        return self.l1i.access(addr, t, is_store=False)

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.itlb.flush()
        self.dtlb.flush()


def build_uncore(cfg: HierarchyConfig) -> Uncore:
    """Construct the shared uncore for a system."""
    return Uncore(cfg)
