#!/usr/bin/env python3
"""Bench smoke check (CI): guard the hot-path speedup trajectory.

Re-runs the tracked benchmark (the same harness behind ``repro bench
--batched``) and compares it against the committed baseline
``BENCH_5.json``:

1. the accelerated pass must stay **bit-identical** to the reference
   path on every kernel (cycles, stalls, instruction counts), and the
   config-batched sweep pass must stay bit-identical to serial
   per-config jobs on every (kernel, config) point;
2. the off/on speedup and the serial/batched speedup — same-host
   ratios, so they are stable across CI runners — must not regress by
   more than 10% against the baseline;
3. the interpreter's second pass must decode entirely out of the
   instruction cache;
4. building the 39 runnable kernels at scale 1.0 (best of 3) must
   sustain at least 5e6 uops/s: the column-at-a-time generators do
   >1.5e7 and one Python call per uop does ~1.7e6, so the floor has 3x
   slack against host noise yet trips if a per-uop loop creeps back
   into a generator;
5. host us/uop of ``Cca`` (scale 0.3, best of 5) on ``LargeBOOM`` must
   be at most 5.5x the same on ``Rocket1``: with TAGE's folded history
   kept incrementally the ratio is ~3.0, re-folding the history per
   lookup made it 7.0.  A same-host ratio, so runner speed cancels.

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
#: allowed fractional speedup regression vs the committed baseline
TOLERANCE = 0.10
#: minimum trace-build rate over the suite at scale 1.0, uops per second
BUILD_FLOOR = 5e6
#: maximum host-time ratio of Cca on LargeBOOM over Cca on Rocket1
OOO_PREDICTOR_CEILING = 5.5


def _build_rate() -> float:
    """Best-of-3 uops/s building every runnable kernel at scale 1.0."""
    kernels = runnable_kernels()
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        uops = sum(len(k.build(scale=1.0, seed=0)) for k in kernels)
        best = max(best, uops / (time.perf_counter() - t0))
    return best


def _ooo_predictor_ratio() -> float:
    """Best-of-5 warm host seconds of Cca on LargeBOOM over Rocket1."""
    trace = get_kernel("Cca").build(scale=0.3, seed=0)
    best = {}
    for name in ("LargeBOOM", "Rocket1"):
        system = System(get_config(name))
        system.run(trace)  # compile the trace, warm the target
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            system.run(trace)
            times.append(time.perf_counter() - t0)
        best[name] = min(times)
    return best["LargeBOOM"] / best["Rocket1"]


def _gate_speedup(name: str, run: float, base: float) -> bool:
    floor = base * (1.0 - TOLERANCE)
    if run < floor:
        print(f"FAIL: {name} speedup x{run} fell below x{floor:.2f} "
              f"(baseline x{base} - {TOLERANCE:.0%})")
        return False
    return True


def main() -> int:
    baseline = json.loads(BASELINE.read_text())

    rate = _build_rate()
    print(f"trace build: {rate:.3g} uops/s (floor {BUILD_FLOOR:.0e})")
    if rate < BUILD_FLOOR:
        print("FAIL: trace build fell below the floor - is a generator "
              "emitting one Python call per uop again?")
        return 1

    ratio = _ooo_predictor_ratio()
    print(f"Cca host time, LargeBOOM / Rocket1: x{ratio:.2f} "
          f"(ceiling x{OOO_PREDICTOR_CEILING})")
    if ratio > OOO_PREDICTOR_CEILING:
        print("FAIL: the OoO engine's predictor cost is back - is TAGE "
              "re-folding its history per lookup again?")
        return 1

    record = run_bench(batched=True)  # same defaults as the baseline
    suite = record["suite"]
    bt = record["batched"]
    print(f"suite: baseline x{baseline['suite']['speedup']}, this run "
          f"x{suite['speedup']} ({suite['kernels']} kernels, "
          f"off {suite['off_seconds']}s, on {suite['on_seconds']}s)")
    print(f"batched: baseline x{baseline['batched']['speedup']}, this run "
          f"x{bt['speedup']} ({bt['kernels']} kernels x "
          f"{len(bt['configs'])} configs, serial {bt['serial_seconds']}s, "
          f"batched {bt['batched_seconds']}s)")

    if not suite["identical"]:
        print("FAIL: accel=on diverged from the reference path")
        return 1
    if not bt["identical"]:
        print("FAIL: batched sweep diverged from serial per-config jobs")
        return 1
    if not _gate_speedup("suite", suite["speedup"],
                         baseline["suite"]["speedup"]):
        return 1
    if not _gate_speedup("batched", bt["speedup"],
                         baseline["batched"]["speedup"]):
        return 1

    interp = record["interp"]
    if not (interp["decode_hits"] == interp["decode_misses"] > 0):
        print(f"FAIL: decode cache not effective: {interp}")
        return 1

    print("bench smoke OK: bit-identical (suite + batched), "
          "speedups within tolerance, trace build above the floor, "
          "OoO predictor ratio under the ceiling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
