"""Cross-module integration scenarios: serialization -> perf, compiler ->
manager, fragments -> applications."""

import numpy as np
import pytest

from repro.analysis import perf_stat
from repro.firesim import FireSimManager
from repro.isa import Interpreter, assemble, load_trace, save_trace
from repro.soc import (
    BANANA_PI_SIM,
    ROCKET1,
    System,
    WithClock,
    WithL2Banks,
    compose,
)
from repro.workloads.compiler import GCC_9_4
from repro.workloads.microbench import get_kernel
from repro.workloads.npb import run_ep


def test_saved_trace_perf_stat_roundtrip(tmp_path):
    t = get_kernel("DP1d").build(scale=0.05)
    path = tmp_path / "dp1d.npz"
    save_trace(t, path)
    direct = perf_stat(ROCKET1, t)
    loaded = perf_stat(ROCKET1, load_trace(path))
    assert direct.cycles == loaded.cycles
    assert direct.l1d_loads_misses == loaded.l1d_loads_misses


def test_compiler_transform_through_manager():
    t = get_kernel("EI").build(scale=0.05)
    old = GCC_9_4.transform(t)
    mgr_new, mgr_old = FireSimManager(ROCKET1), FireSimManager(ROCKET1)
    rep_new = mgr_new.run_trace(t)
    rep_old = mgr_old.run_trace(old)
    assert rep_old.target_cycles > rep_new.target_cycles
    assert rep_old.instructions > rep_new.instructions


def test_composed_config_runs_verified_application():
    cfg = compose(ROCKET1, WithL2Banks(2), WithClock(2.0), name="Custom")
    res = run_ep(cfg, nranks=2, cls="S")
    assert res.verified
    assert res.core_ghz == 2.0


def test_assembled_fp_code_times_everywhere():
    """RV64 FP assembly -> trace -> every core style."""
    words = assemble(
        """
            li t0, 0
            li t1, 50
            fcvt.d.l fa0, x0
        loop:
            fcvt.d.l fa1, t0
            fmadd.d fa0, fa1, fa1, fa0    # sum of squares
            addi t0, t0, 1
            bne t0, t1, loop
            ecall
        """
    )
    interp = Interpreter(words)
    trace = interp.run()
    expected = sum(i * i for i in range(50))
    assert interp.freg("fa0") == float(expected)
    from repro.soc import MILKV_SIM

    r_in = System(ROCKET1).run(trace)
    r_ooo = System(MILKV_SIM).run(trace)
    assert r_in.instructions == r_ooo.instructions == len(trace)
    # the serial FMA chain bounds both cores near fp_fma latency per iter
    assert r_in.cycles >= 50 * 4
    assert r_ooo.cycles >= 50 * 4


def test_deterministic_full_pipeline():
    """Same seed -> identical kernel, identical cycles, twice."""

    def run_once():
        t = get_kernel("CCh").build(scale=0.05, seed=11)
        return System(ROCKET1).run(t).cycles

    assert run_once() == run_once()
