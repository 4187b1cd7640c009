"""Memory-hierarchy timing models: caches, TLBs, buses, LLCs, DRAM."""

from .bus import BusConfig, BusStats, SystemBus
from .cache import Cache, CacheConfig, CacheStats
from .coherence import CoherenceStats, SnoopDirectory
from .dram import (
    DDR3_2000_QUAD_RANK,
    DDR4_3200_4CH,
    DRAM,
    DRAMConfig,
    DRAMStats,
    DRAMTimings,
    LPDDR4_2666_DUAL,
)
from .hierarchy import HierarchyConfig, TilePort, Uncore, build_uncore
from .llc import InterleavedLLC, RealisticLLC, SimplifiedLLC, make_llc_slices
from .tlb import TLB, TLBConfig, TLBStats, TwoLevelTLB

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "BusConfig",
    "BusStats",
    "SystemBus",
    "SnoopDirectory",
    "CoherenceStats",
    "DRAM",
    "DRAMConfig",
    "DRAMStats",
    "DRAMTimings",
    "DDR3_2000_QUAD_RANK",
    "DDR4_3200_4CH",
    "LPDDR4_2666_DUAL",
    "TLB",
    "TLBConfig",
    "TLBStats",
    "TwoLevelTLB",
    "SimplifiedLLC",
    "RealisticLLC",
    "InterleavedLLC",
    "make_llc_slices",
    "HierarchyConfig",
    "Uncore",
    "TilePort",
    "build_uncore",
]
