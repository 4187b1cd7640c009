"""SoC assembly: Chipyard-like configs, tiles, token lockstep, and the
named models of paper Tables 4/5."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "config": ["BranchPredictorConfig", "SoCConfig"],
    "presets": [
        "ALL_CONFIGS", "BANANA_PI_HW", "BANANA_PI_SIM", "FAST_BANANA_PI_SIM",
        "FIRESIM_DDR3", "FIRESIM_MODELS", "LARGE_BOOM", "MEDIUM_BOOM",
        "MILKV_HW", "MILKV_SIM", "ROCKET1", "ROCKET2", "SILICON_MODELS",
        "SMALL_BOOM", "get_config", "table4_rows", "table5_rows"],
    "fragments": [
        "Fragment", "WithBusWidth", "WithClock", "WithCores", "WithDRAM",
        "WithL1Size", "WithL2Banks", "WithLLC", "WithoutLLC",
        "WithoutPrefetcher", "WithPrefetcher", "WithVectorUnit", "compose"],
    "system": ["System", "Tile", "build_branch_unit"],
    "tokens": ["Lane", "LockstepScheduler", "TokenChannel"],
})
