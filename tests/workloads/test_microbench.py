"""Tests of the MicroBench suite: inventory, trace shapes, and the
microarchitectural behaviours each kernel is supposed to expose."""

import gc
import weakref

import numpy as np
import pytest

from repro.isa.opcodes import OpClass
from repro.soc import BANANA_PI_HW, BANANA_PI_SIM, ROCKET1
from repro.workloads.microbench import (
    all_kernels,
    categories,
    get_kernel,
    run_kernel,
    run_suite,
    runnable_kernels,
)

SCALE = 0.08  # keep unit tests fast; benches run at full scale


# ------------------------------------------------------------ inventory

@pytest.mark.parametrize("kernel", [k.spec.name for k in runnable_kernels()])
def test_a_built_trace_dies_with_its_last_reference(kernel):
    """No reference cycle holds a trace (CRf's recursive emitter once
    did), so refcounting frees it and peak memory does not move with
    the cyclic collector's phase."""
    gc.collect()
    gc.disable()
    try:
        trace = get_kernel(kernel).build(scale=0.05, seed=0)
        ref = weakref.ref(trace)
        del trace
        assert ref() is None
    finally:
        gc.enable()


def test_forty_kernels_registered():
    assert len(all_kernels()) == 40


def test_crm_excluded_from_runnable():
    names = {k.spec.name for k in runnable_kernels()}
    assert len(names) == 39
    assert "CRm" not in names


def test_categories_match_table1():
    cats = categories()
    assert len(cats["Control Flow"]) == 12
    assert len(cats["Data"]) == 5
    assert len(cats["Execution"]) == 5
    assert len(cats["Cache"]) == 16
    assert len(cats["Memory"]) == 2


def test_get_kernel_unknown():
    with pytest.raises(KeyError):
        get_kernel("XYZ")


def test_crm_build_raises():
    with pytest.raises(RuntimeError):
        get_kernel("CRm").build()
    with pytest.raises(RuntimeError):
        run_kernel(ROCKET1, "CRm")


@pytest.mark.parametrize("kernel", [k.spec.name for k in runnable_kernels()])
def test_kernel_builds_nonempty_trace(kernel):
    t = get_kernel(kernel).build(scale=SCALE)
    assert len(t) > 20
    assert len(t) < 200_000


def test_traces_deterministic():
    a = get_kernel("CCh").build(scale=SCALE, seed=3)
    b = get_kernel("CCh").build(scale=SCALE, seed=3)
    assert np.array_equal(a.op, b.op)
    assert np.array_equal(a.addr, b.addr)
    assert np.array_equal(a.taken, b.taken)


# ------------------------------------------------ behavioural signatures

def run(name, config=ROCKET1, scale=SCALE):
    return run_kernel(config, name, scale=scale)


def test_biased_beats_random_branches():
    cca = run("Cca")
    cch = run("CCh")
    # a 5-stage pipeline pays only ~3 cycles per flush, so the CPI gap is
    # modest; the mispredict counts are the discriminating signal
    assert cch.result.cpi > 1.15 * cca.result.cpi
    assert cch.result.mispredicts > 10 * max(1, cca.result.mispredicts)


def test_large_blocks_amortise_mispredicts():
    cch = run("CCh")
    ccl = run("CCl")
    assert ccl.result.cpi < cch.result.cpi


def test_switch_every_third_easier_than_every_time():
    cs1 = run("CS1")
    cs3 = run("CS3")
    assert cs3.result.cpi <= cs1.result.cpi


def test_deep_recursion_overflows_rocket_ras():
    crd = run("CRd", scale=0.3)
    assert crd.result.mispredicts > 50  # 6-deep RAS vs 1000-deep recursion


def test_mm_is_dram_bound():
    md = run("MD")     # L1-resident chase
    mm = run("MM")     # 128 MiB chase
    assert mm.result.cpi > 5 * md.result.cpi
    assert mm.result.l1d_misses > 0.9 * mm.result.instructions / 5


def test_ml2_between_md_and_mm():
    md = run("MD")
    ml2 = run("ML2")
    mm = run("MM")
    assert md.result.cpi < ml2.result.cpi < mm.result.cpi


def test_conflict_kernel_thrashes_64set_l1():
    mc = run("MC")
    mim = run("MIM")
    assert mc.result.l1d_misses > 5 * max(1, mim.result.l1d_misses)


def test_mim2_coalescing_cheaper_than_two_lines():
    mim2 = run("MIM2")
    # two loads per iteration but only one distinct line: miss count ~ MIM
    mim = run("MIM")
    assert mim2.result.l1d_misses < 1.5 * max(1, mim.result.l1d_misses)


def test_mip_misses_instruction_cache():
    mip = run("MIP")
    assert mip.result.l1i_misses > 0.2 * mip.result.instructions / 3


def test_em1_slower_than_ei():
    em1 = run("EM1")  # dependent multiply chain
    ei = run("EI")    # independent ALU
    assert em1.result.cpi > 2 * ei.result.cpi


def test_ef_fp_latency_bound_on_rocket():
    ef = run("EF")
    # 8 independent FMAs: single-issue in-order sustains ~1 IPC
    assert 0.8 < ef.result.cpi < 2.5


def test_dual_issue_k1_beats_rocket_on_execution():
    for name in ("EI", "ED1"):
        sim = run(name, BANANA_PI_SIM)
        hw = run(name, BANANA_PI_HW)
        rel = sim.seconds / hw.seconds
        # hardware should win (relative perf < 1), per paper Fig. 1
        assert hw.seconds < sim.seconds, name


def test_run_suite_subset():
    runs = run_suite(ROCKET1, scale=SCALE, kernels=["Cca", "EI"])
    assert set(runs) == {"Cca", "EI"}
    assert all(r.cycles > 0 for r in runs.values())


def test_kernelrun_metrics():
    r = run("EI")
    assert r.seconds > 0
    assert r.ops_per_second > 0
    assert r.config == "Rocket1"
