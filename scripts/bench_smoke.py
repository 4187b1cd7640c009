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
5. host time of ``Cca`` (scale 0.3, best of 5) on ``LargeBOOM`` with
   ``accel="off"`` must be at least 3x the same with ``accel="on"``:
   with TAGE's folded history kept incrementally the ratio is 4.3-4.6
   (4.5-5.3 on the PR 15 tree), with the mirror re-folding the history
   per lookup it is 1.4-1.6 (measured on the PR 15 tree with PR 13's
   TAGE mirror pasted back).  The reference loop is the yardstick, so the
   gate does not move when another engine gets faster — the
   ``LargeBOOM`` / ``Rocket1`` form this replaces went 3.0 -> 4.9 when
   PR 15 made ``Rocket1`` a third cheaper.
6. host time of ``EI`` (scale 0.3, best of 5) on ``BananaPiSim`` with
   ``accel="off"`` must be at least 4.5x the same with ``accel="on"``:
   the same yardstick, isolating the in-order engine.  With simple uops on the short issue path and
   caches mirrored one touched set at a time it is 9.5-11.8; falling through
   the full hazard chain and copying the whole L2 per run made it 3.2.

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
#: minimum host-time ratio of Cca on LargeBOOM, accel off over accel on
OOO_PREDICTOR_FLOOR = 3.0
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


def _ooo_predictor_ratio() -> float:
    """Warm host seconds of Cca on LargeBOOM, reference over engine."""
    cfg = get_config("LargeBOOM")
    return _warm_time_ratio(cfg.with_(accel="off"), cfg.with_(accel="on"),
                            get_kernel("Cca").build(scale=0.3, seed=0))


def _inorder_engine_ratio() -> float:
    """Warm host seconds of EI on BananaPiSim, reference over engine."""
    cfg = get_config("BananaPiSim")
    return _warm_time_ratio(cfg.with_(accel="off"), cfg.with_(accel="on"),
                            get_kernel("EI").build(scale=0.3, seed=0))


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
    print(f"Cca host time on LargeBOOM, accel off / on: x{ratio:.2f} "
          f"(floor x{OOO_PREDICTOR_FLOOR})")
    if ratio < OOO_PREDICTOR_FLOOR:
        print("FAIL: the OoO engine's predictor cost is back - is the "
              "TAGE mirror re-folding its history per lookup again?")
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
          "OoO predictor and in-order engine ratios above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
