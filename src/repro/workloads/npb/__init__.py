"""NAS Parallel Benchmarks: CG, EP, IS, MG (paper Table 2, all class A)."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "common": ["NPBResult", "CLASS_NAMES"],
    "cg": ["CG_CLASSES", "run_cg", "cg_program", "cg_reference"],
    "ep": ["EP_CLASSES", "run_ep", "ep_program", "ep_reference"],
    "is_": ["IS_CLASSES", "run_is", "is_program", "is_reference_checksum"],
    "mg": ["MG_CLASSES", "run_mg", "mg_program", "mg_reference"],
    "runners": ["NPB_RUNNERS", "run_npb"],
})
