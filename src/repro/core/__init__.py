"""Core timing models: in-order (Rocket-like), out-of-order (BOOM-like),
and branch predictors."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ["CoreModel", "CoreResult"],
    "branch": [
        "BTB", "BimodalBHT", "BranchStats", "BranchUnit", "GShare",
        "ReturnAddressStack", "TAGE", "boom_branch_unit", "rocket_branch_unit"],
    "inorder": ["InOrderConfig", "InOrderCore"],
    "ooo": ["OoOConfig", "OoOCore"],
})
