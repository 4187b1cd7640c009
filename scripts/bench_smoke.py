#!/usr/bin/env python3
"""Bench smoke check (CI): the trace-build floor and two identity checks.

1. Building the 39 runnable kernels at scale 1.0 (best of 3) must
   sustain at least 5e6 uops/s: the column-at-a-time generators do
   >1.5e7 and one Python call per uop does ~1.7e6, so the floor has 3x
   slack against host noise yet trips if a per-uop loop creeps back
   into a generator.
2. The config-batched sweep (``batched_sweep``, one compiled trace per
   kernel) must stay bit-identical to one ``execute_job(Job.kernel)``
   per point, on every runnable kernel x ``ALL_CONFIGS`` at scale 0.3 —
   the claim of the ``batch`` tier of ``repro check``, over the whole
   suite.
3. The interpreter's second pass over a program must decode entirely
   out of the instruction cache.

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

from repro.accel import memo  # noqa: E402
from repro.accel.batch import batched_sweep  # noqa: E402
from repro.accel.stats import global_stats, reset_global_stats  # noqa: E402
from repro.farm.job import Job, execute_job  # noqa: E402
from repro.soc.presets import ALL_CONFIGS  # noqa: E402
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


def _batched_mismatches(scale: float = 0.3) -> list[str]:
    """(kernel, config) points where the batched sweep and the serial
    per-config job disagree; both legs start cache-cold."""
    configs = [ALL_CONFIGS[n] for n in sorted(ALL_CONFIGS)]
    bad = []
    t_serial = t_batched = 0.0
    for kern in runnable_kernels():
        name = kern.spec.name
        memo.clear_caches()
        t0 = time.perf_counter()
        serial = {cfg.name: execute_job(Job.kernel(cfg, name, scale=scale))
                  for cfg in configs}
        t_serial += time.perf_counter() - t0
        memo.clear_caches()
        t0 = time.perf_counter()
        points = batched_sweep(configs, name, scale=scale)
        t_batched += time.perf_counter() - t0
        bad += [f"{name}@{cfg}" for cfg in serial
                if points.get(cfg) != serial[cfg]]
    print(f"batched sweep (not gated): serial {t_serial:.1f}s, "
          f"batched {t_batched:.1f}s")
    return bad


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

    bad = _batched_mismatches()
    if bad:
        print(f"FAIL: batched sweep diverged from serial per-config jobs "
              f"at {len(bad)} point(s): {', '.join(bad[:10])}")
        return 1

    hits, misses = _decode_counts()
    if not hits == misses > 0:
        print(f"FAIL: decode cache not effective: {hits} hits, "
              f"{misses} misses")
        return 1

    print("bench smoke OK: trace build above the floor, batched sweep "
          "bit-identical to serial jobs, decode cache effective")
    return 0


if __name__ == "__main__":
    sys.exit(main())
