"""Memory-hierarchy timing models: caches, TLBs, buses, LLCs, DRAM."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "bus": ["BusConfig", "BusStats", "SystemBus"],
    "cache": ["Cache", "CacheConfig", "CacheStats"],
    "coherence": ["CoherenceStats", "SnoopDirectory"],
    "dram": [
        "DDR3_2000_QUAD_RANK", "DDR4_3200_4CH", "DRAM", "DRAMConfig",
        "DRAMStats", "DRAMTimings", "LPDDR4_2666_DUAL"],
    "hierarchy": ["HierarchyConfig", "TilePort", "Uncore"],
    "llc": [
        "InterleavedLLC", "RealisticLLC", "SimplifiedLLC", "make_llc_slices"],
    "tlb": ["TLB", "TLBConfig", "TLBStats", "TwoLevelTLB"],
})
