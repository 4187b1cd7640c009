#!/usr/bin/env python3
"""Bench smoke check (CI): the trace-build floor and the decode cache.

1. Building the 39 runnable kernels at scale 1.0 (best of 3) must
   sustain at least 5e6 uops/s: the column-at-a-time generators do
   >1.5e7 and one Python call per uop does ~1.7e6, so the floor has 3x
   slack against host noise yet trips if a per-uop loop creeps back
   into a generator.
2. The interpreter's second pass over a program must decode entirely
   out of the instruction cache.

``batched_sweep`` against one ``execute_job(Job.kernel)`` per point is
not checked here: both run ``farm.job._kernel_point``, and
``tests/accel/test_batch.py::test_batched_sweep_matches_serial_jobs_all_configs``
(every config in ``ALL_CONFIGS``), the ``batch`` tier of ``repro check``
and ``scripts/pin_results.py --check`` (every ``Job.kernel`` payload over
``ALL_CONFIGS`` x 39 kernels) hold the two together.

Wall-clock numbers are printed, not gated: they measure the host, not
the code (``benchmarks/perf`` is the tracked benchmark).  Exit code 0 on
success; any check failure is a regression.
"""

from __future__ import annotations

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.accel.stats import global_stats, reset_global_stats  # noqa: E402
from repro.workloads.microbench import runnable_kernels  # noqa: E402

#: minimum trace-build rate over the suite at scale 1.0, uops per second
BUILD_FLOOR = 5e6

#: a store/load/ALU loop over page-backed memory, re-entering the same
#: decoded words on every iteration
_INTERP_LOOP = """
    addi x5, x0, 0
    addi x6, x0, 320
    slli x6, x6, 3
    addi x7, x0, 0
loop:
    andi x8, x5, 2047
    slli x8, x8, 3
    addi x8, x8, 1024
    sd   x7, 0(x8)
    ld   x9, 0(x8)
    add  x7, x7, x9
    addi x5, x5, 1
    blt  x5, x6, loop
    ecall
"""


def _build_rate() -> float:
    """Best-of-3 uops/s building every runnable kernel at scale 1.0."""
    kernels = runnable_kernels()
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        uops = sum(len(k.build(scale=1.0, seed=0)) for k in kernels)
        best = max(best, uops / (time.perf_counter() - t0))
    return best


def _decode_counts() -> tuple[int, int]:
    """Decode-cache (hits, misses) over two runs of one program."""
    from repro.isa import interp as _interp
    from repro.isa.assembler import assemble
    from repro.isa.interp import Interpreter

    prog = assemble(_INTERP_LOOP)
    _interp._DECODE_CACHE.clear()
    reset_global_stats()
    for _ in range(2):
        Interpreter(prog, trace=False).run(max_instructions=10_000_000)
    g = global_stats()
    return g.decode_hits, g.decode_misses


def main() -> int:
    rate = _build_rate()
    print(f"trace build: {rate:.3g} uops/s (floor {BUILD_FLOOR:.0e})")
    if rate < BUILD_FLOOR:
        print("FAIL: trace build fell below the floor - is a generator "
              "emitting one Python call per uop again?")
        return 1

    hits, misses = _decode_counts()
    if not hits == misses > 0:
        print(f"FAIL: decode cache not effective: {hits} hits, "
              f"{misses} misses")
        return 1

    print("bench smoke OK: trace build above the floor, decode cache "
          "effective")
    return 0


if __name__ == "__main__":
    sys.exit(main())
