"""MicroBench suite registry and runner.

40 kernels across 5 categories (paper Table 1).  ``CRm`` is registered but
marked broken — it segfaulted on every platform in the study — so
:func:`runnable_kernels` returns the 39 the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...accel import memo
from ...core.base import CoreResult
from ...soc.config import SoCConfig
from ...soc.system import System
from ..base import MicroKernel
from . import cachebench, controlflow, dataparallel, execution

__all__ = [
    "KERNEL_CLASSES",
    "all_kernels",
    "runnable_kernels",
    "get_kernel",
    "categories",
    "KernelRun",
    "run_kernel",
    "run_suite",
]

KERNEL_CLASSES: list[type[MicroKernel]] = [
    # Control flow (12)
    controlflow.Cca, controlflow.Cce, controlflow.CCh, controlflow.CChSt,
    controlflow.CCl, controlflow.CCm, controlflow.CF1, controlflow.CRd,
    controlflow.CRf, controlflow.CRm, controlflow.CS1, controlflow.CS3,
    # Data parallel (5)
    dataparallel.DP1d, dataparallel.DP1f, dataparallel.DPT,
    dataparallel.DPTd, dataparallel.DPcvt,
    # Execution (5)
    execution.ED1, execution.EF, execution.EI, execution.EM1, execution.EM5,
    # Cache (16)
    cachebench.MC, cachebench.MCS, cachebench.MD, cachebench.MI,
    cachebench.MIM, cachebench.MIM2, cachebench.MIP, cachebench.ML2,
    cachebench.ML2_BW_ld, cachebench.ML2_BW_ldst, cachebench.ML2_BW_st,
    cachebench.ML2_st, cachebench.STL2, cachebench.STL2b, cachebench.STc,
    cachebench.M_Dyn,
    # Memory (2)
    cachebench.MM, cachebench.MM_st,
]

_BY_NAME: dict[str, type[MicroKernel]] = {
    cls.spec.name: cls for cls in KERNEL_CLASSES
}


def all_kernels() -> list[MicroKernel]:
    """All 40 kernels, including the broken CRm."""
    return [cls() for cls in KERNEL_CLASSES]


def runnable_kernels() -> list[MicroKernel]:
    """The 39 kernels the paper evaluates (CRm excluded)."""
    return [cls() for cls in KERNEL_CLASSES if not cls.spec.broken]


def get_kernel(name: str) -> MicroKernel:
    try:
        return _BY_NAME[name]()
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(_BY_NAME)}"
        ) from None


def categories() -> dict[str, list[str]]:
    """Kernel names grouped by Table 1 category."""
    out: dict[str, list[str]] = {}
    for cls in KERNEL_CLASSES:
        out.setdefault(cls.spec.category, []).append(cls.spec.name)
    return out


@dataclass
class KernelRun:
    """Measured execution of one kernel on one configuration."""

    kernel: str
    config: str
    result: CoreResult
    core_ghz: float
    #: ``{"static": {"uops": n}}`` when the core loop simulated the
    #: measured pass, None on a memo hit.  Read only
    #: by benchmarks/perf (simulated vs memo-served); goes when that
    #: suite drops the read
    accel: dict | None = None

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def seconds(self) -> float:
        return self.result.cycles / (self.core_ghz * 1e9)

    @property
    def ops_per_second(self) -> float:
        return self.result.instructions / self.seconds if self.seconds else 0.0


def run_kernel(config: SoCConfig, kernel: MicroKernel | str,
               scale: float = 1.0, seed: int = 0,
               warmup: bool = True) -> KernelRun:
    """Run one kernel on a fresh system built from *config*.

    A warmup pass trains caches and predictors (microbenchmark harnesses
    time the steady state); the second pass is measured.

    The decoded trace is shared process-wide (sweeps stop rebuilding it
    per configuration point) and the whole fresh-system run is memoized
    on ``(trace, config)`` content identity — a repeated point returns
    the identical :class:`~repro.core.base.CoreResult` without
    simulating.  ``REPRO_ACCEL_MEMO=0`` bypasses the result memo.
    """
    if isinstance(kernel, str):
        kernel = get_kernel(kernel)
    if kernel.spec.broken:
        raise RuntimeError(f"kernel {kernel.spec.name} is marked broken")
    scale = max(scale, kernel.min_harness_scale)
    name = kernel.spec.name
    k = kernel
    trace = memo.shared_trace(
        name, scale, seed, lambda: k.build(scale=scale, seed=seed))
    system = System(config)
    do_warmup = warmup and kernel.needs_warmup
    key = None
    if memo.memo_enabled():
        key = memo.memo_key(trace, config, system.uncore,
                            extra=("run_kernel", do_warmup))
        hit = memo.memo_get(key)
        if hit is not None:
            return KernelRun(name, config.name, hit, config.core_ghz)
    if do_warmup:
        system.run(trace)
    result = system.run(trace)
    if key is not None:
        memo.memo_put(key, result)
    return KernelRun(name, config.name, result, config.core_ghz,
                     {"static": {"uops": len(trace)}})


def run_suite(config: SoCConfig, scale: float = 1.0, seed: int = 0,
              kernels: list[str] | None = None,
              warmup: bool = True) -> dict[str, KernelRun]:
    """Run the (runnable) suite on one configuration."""
    todo = (
        [get_kernel(n) for n in kernels]
        if kernels is not None
        else runnable_kernels()
    )
    return {
        k.spec.name: run_kernel(config, k, scale=scale, seed=seed, warmup=warmup)
        for k in todo
    }
