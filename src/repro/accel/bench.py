"""Tracked hot-path benchmark: the ``repro bench`` harness.

Times the 39-kernel microbench sweep twice on the same configuration —
reference path (``accel="off"``) then accelerated path (``accel="on"``) —
verifies the two passes are bit-identical, and times the RV64 functional
interpreter.  The result is written as ``BENCH_<n>.json`` at the repo
root, the perf-trajectory artifact every subsequent PR is measured
against (the CI ``bench-smoke`` job fails on >10% regression).

Every in-process cache is dropped before each timed pass, so a pass
never feeds on work done by an earlier one: the accelerated pass pays
for its own trace building, compilation, and memoization.

``repro bench --batched`` adds a second experiment on the same record:
the full (kernel x ALL_CONFIGS) sweep timed serial-per-config versus
config-batched (:func:`run_batched_bench`), with its own bit-identity
flag.
"""

from __future__ import annotations

import json
import time
from typing import Any

from . import memo
from .stats import global_stats, reset_global_stats

__all__ = ["run_suite_bench", "run_batched_bench", "run_interp_bench",
           "run_bench", "write_bench_json", "BENCH_SCHEMA"]

BENCH_SCHEMA = 1


def _suite_pass(config, scale: float, seed: int, kernels):
    """One timed, cold-cache pass of the microbench suite."""
    from ..workloads.microbench.suite import run_suite

    memo.clear_caches()
    t0 = time.perf_counter()
    runs = run_suite(config, scale=scale, seed=seed, kernels=kernels)
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def run_suite_bench(config=None, scale: float = 0.5, seed: int = 0,
                    kernels: list[str] | None = None) -> dict[str, Any]:
    """Time the microbench sweep with accel off, then on.

    Returns a record with both wall-clock times, the speedup, throughput
    in retired uops/second, and an ``identical`` flag asserting the
    bit-identity contract held for every kernel's cycle count and stall
    attribution.
    """
    if config is None:
        from ..soc.presets import ROCKET1 as config

    off_runs, off_s = _suite_pass(config.with_(accel="off"), scale, seed,
                                  kernels)
    on_runs, on_s = _suite_pass(config.with_(accel="on"), scale, seed,
                                kernels)

    identical = all(
        a.result.cycles == b.result.cycles
        and a.result.stalls == b.result.stalls
        and a.result.instructions == b.result.instructions
        for a, b in zip(off_runs.values(), on_runs.values())
    )
    uops = sum(r.result.instructions for r in on_runs.values())
    return {
        "config": config.name,
        "kernels": len(on_runs),
        "scale": scale,
        "seed": seed,
        "off_seconds": round(off_s, 3),
        "on_seconds": round(on_s, 3),
        "speedup": round(off_s / on_s, 2) if on_s else 0.0,
        "uops": uops,
        "off_uops_per_second": round(uops / off_s) if off_s else 0,
        "on_uops_per_second": round(uops / on_s) if on_s else 0,
        "identical": identical,
    }


def run_batched_bench(configs=None, scale: float = 0.3, seed: int = 0,
                      kernels: list[str] | None = None) -> dict[str, Any]:
    """Time the (kernel x config) sweep serial-per-config, then batched.

    The serial leg runs one ``Job.kernel`` per (kernel, config) pair on
    the reference models (``accel="off"``) — the per-config path every
    batched point is contractually bit-identical to.  The batched leg
    runs one config-batched ``Job.sweep`` per kernel: the trace is
    compiled once and every configuration evaluated over it.  Both legs
    start cache-cold; ``identical`` asserts full payload equality on
    every (kernel, config) point.
    """
    from ..farm.job import Job, execute_job
    from ..soc.presets import ALL_CONFIGS
    from ..workloads.microbench import runnable_kernels

    if configs is None:
        configs = [ALL_CONFIGS[n] for n in sorted(ALL_CONFIGS)]
    names = kernels or [k.spec.name for k in runnable_kernels()]

    memo.clear_caches()
    serial: dict[str, dict[str, Any]] = {}
    t0 = time.perf_counter()
    for kname in names:
        serial[kname] = {
            cfg.name: execute_job(Job.kernel(cfg.with_(accel="off"), kname,
                                             scale=scale, seed=seed))
            for cfg in configs
        }
    serial_s = time.perf_counter() - t0

    memo.clear_caches()
    batched: dict[str, dict[str, Any]] = {}
    t0 = time.perf_counter()
    for kname in names:
        payload = execute_job(Job.sweep(configs, kname,
                                        scale=scale, seed=seed))
        batched[kname] = payload["points"]
    batched_s = time.perf_counter() - t0

    identical = all(
        serial[kname][cfg.name] == batched[kname][cfg.name]
        for kname in names for cfg in configs
    )
    return {
        "configs": [cfg.name for cfg in configs],
        "kernels": len(names),
        "scale": scale,
        "seed": seed,
        "serial_seconds": round(serial_s, 3),
        "batched_seconds": round(batched_s, 3),
        "speedup": round(serial_s / batched_s, 2) if batched_s else 0.0,
        "identical": identical,
    }


def run_interp_bench(iterations: int = 40) -> dict[str, Any]:
    """Time the functional interpreter on a store/load/ALU inner loop.

    The loop body touches the page-backed :class:`~repro.isa.interp.Memory`
    on every iteration and re-enters the same decoded words, so this
    measures exactly what the interpreter satellites optimized: memory
    word paths and the instruction decode cache.
    """
    from ..isa.assembler import assemble
    from ..isa.interp import Interpreter

    src = """
        addi x5, x0, 0
        addi x6, x0, {n}
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
    """.format(n=min(iterations * 8, 2047))

    prog = assemble(src)
    from ..isa import interp as _interp

    _interp._DECODE_CACHE.clear()
    reset_global_stats()
    retired = 0
    t0 = time.perf_counter()
    # two executions of the same program: the second one decodes
    # entirely out of the instruction cache
    for _ in range(2):
        interp = Interpreter(prog, trace=False)
        interp.run(max_instructions=10_000_000)
        retired += interp.retired
    elapsed = time.perf_counter() - t0
    g = global_stats()
    return {
        "instructions": retired,
        "seconds": round(elapsed, 3),
        "instructions_per_second": (round(interp.retired / elapsed)
                                    if elapsed else 0),
        "mem_bytes": len(interp.mem),
        "decode_hits": g.decode_hits,
        "decode_misses": g.decode_misses,
    }


def run_bench(config=None, scale: float = 0.5, seed: int = 0,
              kernels: list[str] | None = None,
              batched: bool = False) -> dict[str, Any]:
    """Full tracked benchmark: microbench sweep + interpreter.

    With *batched* (CLI ``repro bench --batched``) the record also gets
    a ``batched`` section timing the full (kernel x ALL_CONFIGS) sweep
    serial-per-config versus config-batched.
    """
    record = {
        "schema": BENCH_SCHEMA,
        "suite": run_suite_bench(config, scale=scale, seed=seed,
                                 kernels=kernels),
        "interp": run_interp_bench(),
    }
    if batched:
        record["batched"] = run_batched_bench(kernels=kernels, seed=seed)
    return record


def write_bench_json(record: dict[str, Any], path) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
