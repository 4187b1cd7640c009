"""Reference "hardware" models standing in for the physical boards."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "board": ["Board", "Measurement", "banana_pi", "milkv_pioneer"],
})
