"""MicroBench: the 40-kernel microarchitecture benchmark suite (Table 1)."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "suite": [
        "KERNEL_CLASSES", "KernelRun", "all_kernels", "categories",
        "get_kernel", "run_kernel", "run_suite", "runnable_kernels"],
})
