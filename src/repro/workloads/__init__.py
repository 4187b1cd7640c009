"""Workloads: MicroBench suite, NPB, UME proxy app, LAMMPS-mini."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ["KernelSpec", "MicroKernel", "LoopEmitter", "PhaseEmitter"],
    "compiler": ["GccModel", "GCC_9_4", "GCC_13_2", "apply_compiler"],
}, submodules=["microbench", "npb", "ume", "lammps"])
