#!/usr/bin/env python3
"""Bench smoke check (CI): guard bit-identity and the hot-path floors.

Re-runs the tracked benchmark (the same harness behind ``repro bench
--batched``) and prints it beside the committed baseline
``BENCH_5.json``:

1. the accelerated pass must stay **bit-identical** to the reference
   path on every kernel (cycles, stalls, instruction counts), and the
   config-batched sweep pass must stay bit-identical to serial
   per-config jobs on every (kernel, config) point;
2. the interpreter's second pass must decode entirely out of the
   instruction cache;
3. building the 39 runnable kernels at scale 1.0 (best of 3) must
   sustain at least 5e6 uops/s: the column-at-a-time generators do
   >1.5e7 and one Python call per uop does ~1.7e6, so the floor has 3x
   slack against host noise yet trips if a per-uop loop creeps back
   into a generator;
4. host time of ``EI`` (scale 0.3, best of 5) on ``BananaPiSim`` with
   ``accel="off"`` must be at least 4.5x the same with ``accel="on"``:
   the reference loop is the yardstick, isolating the in-order engine.
   With simple uops on the short issue path and caches mirrored one
   touched set at a time it was 9.5-11.8, and 7.5-8.6 since the reference
   loop binds the one branch unit too; falling through the full hazard
   chain and copying the whole L2 per run made it 3.2.

The suite's off/on speedup and the serial/batched speedup are printed,
not gated.  Both time ``accel="off"`` (the reference loops) against
the engines, and since both loops bind the one branch unit the off side
no longer runs a second, re-folding TAGE: suite x2.95 in the baseline,
x1.6-2.1 now; batched x2.4-2.6 before, x1.45-1.8 now (serial leg
117 -> 58-74 s, batched leg 45 -> 40 s).  A ``Cca``-on-``LargeBOOM``
off/on gate (x4.1-5.3 before, x1.8-1.9 after) went for the same
reason; ``tests/accel/test_tage_fold.py`` holds TAGE's folded
registers instead.

Other absolute wall-clock numbers are *not* compared: they measure the
host, not the code.  Exit code 0 on success; any check failure is a
regression.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.accel.bench import run_bench  # noqa: E402
from repro.soc import System, get_config  # noqa: E402
from repro.workloads.microbench import get_kernel, runnable_kernels  # noqa: E402

BASELINE = ROOT / "BENCH_5.json"
#: minimum trace-build rate over the suite at scale 1.0, uops per second
BUILD_FLOOR = 5e6
#: minimum host-time ratio of EI on BananaPiSim, accel off over accel on
INORDER_ENGINE_FLOOR = 4.5


def _build_rate() -> float:
    """Best-of-3 uops/s building every runnable kernel at scale 1.0."""
    kernels = runnable_kernels()
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        uops = sum(len(k.build(scale=1.0, seed=0)) for k in kernels)
        best = max(best, uops / (time.perf_counter() - t0))
    return best


def _warm_time_ratio(cfg_a, cfg_b, trace) -> float:
    """Best-of-5 host seconds of *trace* on *cfg_a* over *cfg_b*, each on
    one warmed System, timed turn about so both see the same host."""
    systems = [System(cfg_a), System(cfg_b)]
    best = [float("inf")] * 2
    for system in systems:
        system.run(trace)  # compile the trace, warm the target
    for _ in range(5):
        for i, system in enumerate(systems):
            t0 = time.perf_counter()
            system.run(trace)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[0] / best[1]


def _inorder_engine_ratio() -> float:
    """Warm host seconds of EI on BananaPiSim, reference over engine."""
    cfg = get_config("BananaPiSim")
    return _warm_time_ratio(cfg.with_(accel="off"), cfg.with_(accel="on"),
                            get_kernel("EI").build(scale=0.3, seed=0))


def main() -> int:
    baseline = json.loads(BASELINE.read_text())

    rate = _build_rate()
    print(f"trace build: {rate:.3g} uops/s (floor {BUILD_FLOOR:.0e})")
    if rate < BUILD_FLOOR:
        print("FAIL: trace build fell below the floor - is a generator "
              "emitting one Python call per uop again?")
        return 1

    ratio = _inorder_engine_ratio()
    print(f"EI host time on BananaPiSim, accel off / on: x{ratio:.2f} "
          f"(floor x{INORDER_ENGINE_FLOOR})")
    if ratio < INORDER_ENGINE_FLOOR:
        print("FAIL: the in-order engine lost its lead over the reference "
              "loop - are simple uops off the short issue path, or is "
              "attach copying whole caches again?")
        return 1

    record = run_bench(batched=True)  # same defaults as the baseline
    suite = record["suite"]
    bt = record["batched"]
    print(f"suite (not gated): baseline x{baseline['suite']['speedup']}, this run "
          f"x{suite['speedup']} ({suite['kernels']} kernels, "
          f"off {suite['off_seconds']}s, on {suite['on_seconds']}s)")
    print(f"batched (not gated): baseline x{baseline['batched']['speedup']}, this run "
          f"x{bt['speedup']} ({bt['kernels']} kernels x "
          f"{len(bt['configs'])} configs, serial {bt['serial_seconds']}s, "
          f"batched {bt['batched_seconds']}s)")

    if not suite["identical"]:
        print("FAIL: accel=on diverged from the reference path")
        return 1
    if not bt["identical"]:
        print("FAIL: batched sweep diverged from serial per-config jobs")
        return 1

    interp = record["interp"]
    if not (interp["decode_hits"] == interp["decode_misses"] > 0):
        print(f"FAIL: decode cache not effective: {interp}")
        return 1

    print("bench smoke OK: bit-identical (suite + batched), "
          "decode cache effective, trace build above the floor, "
          "in-order engine ratio above its floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
