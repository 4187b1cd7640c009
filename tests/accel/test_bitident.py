"""The acceleration layer's headline contract: ``accel="on"`` is a pure
wall-clock optimization.  Every named configuration must produce results
bit-identical to the reference path — cycles, stall attribution, CPI
stacks, per-rank MPI results — on a microbench kernel, an NPB kernel,
a LAMMPS step, and a synthetic straight-line trace, including through a
mid-run checkpoint/restore."""

from __future__ import annotations

import dataclasses

import pytest

from repro.accel import memo
from repro.accel.stats import reset_global_stats
from repro.isa.opcodes import OpClass
from repro.isa.trace import TraceBuilder
from repro.soc.presets import ALL_CONFIGS, get_config
from repro.soc.system import System
from repro.telemetry import BUCKETS, StatsRegistry, cpi_stack
from repro.workloads.lammps import run_lammps
from repro.workloads.microbench import get_kernel, run_kernel
from repro.workloads.npb import run_ep

CONFIG_NAMES = sorted(ALL_CONFIGS)


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every comparison starts cold so the on-pass cannot hit a memo
    entry produced by another test's off-pass (and vice versa)."""
    memo.clear_caches()
    reset_global_stats()
    yield
    memo.clear_caches()


def _pair(cfg):
    return cfg.with_(accel="off"), cfg.with_(accel="on")


def _canon(x):
    """asdict tree with numpy arrays lowered to lists, so ``==`` is a
    scalar-wise comparison everywhere: the EP and LAMMPS ranks return
    numpy results (workload data, not simulator state)."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = dataclasses.asdict(x)
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if hasattr(x, "tolist"):
        return x.tolist()
    return x


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_microbench_bit_identical(name):
    off, on = _pair(get_config(name))
    a = run_kernel(off, "MM", scale=0.05)
    b = run_kernel(on, "MM", scale=0.05)
    assert dataclasses.asdict(a.result) == dataclasses.asdict(b.result)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_npb_ep_bit_identical(name):
    off, on = _pair(get_config(name))
    a = run_ep(off, cls="S")
    b = run_ep(on, cls="S")
    assert a.verified and b.verified
    assert a.cycles == b.cycles
    assert _canon(a) == _canon(b)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_lammps_step_bit_identical(name):
    off, on = _pair(get_config(name))
    a = run_lammps(off, nranks=1, benchmark="lj", natoms=64, steps=1)
    b = run_lammps(on, nranks=1, benchmark="lj", natoms=64, steps=1)
    assert a.verified and b.verified
    assert a.cycles == b.cycles
    assert _canon(a) == _canon(b)


def _straightline(reps=40, n_alu=48, n_fp=40):
    """ALU run | load | FP run | divide | branch, repeated: dependence-
    linked exec runs far longer than any microbench loop body."""
    b = TraceBuilder()
    for rep in range(reps):
        for i in range(n_alu):
            b.alu(dst=1 + i % 8, src1=1 + (i + 3) % 8, src2=1 + (i + 5) % 8)
        b.load(dst=9, addr=0x2_0000 + 64 * rep)
        for i in range(n_fp):
            b.fp(OpClass.FP_FMA, dst=12 + i % 4, src1=9,
                 src2=12 + (i + 1) % 4)
        b.div(dst=10, src1=1, src2=2)
        b.branch(taken=rep % 7 == 0)
    return b.build()


@pytest.mark.parametrize("name", ["Rocket1", "MediumBOOM"])
def test_straightline_runs_bit_identical(name):
    """Long straight-line exec runs broken by a load, a divide and a
    branch retire identically through the engine loop and the reference
    model, cold and with a warm front end."""
    trace = _straightline()
    off, on = _pair(get_config(name))
    ref_sys, acc_sys = System(off), System(on)
    for _ in range(2):
        assert (dataclasses.asdict(acc_sys.run(trace))
                == dataclasses.asdict(ref_sys.run(trace)))


def _straddling_2_63():
    """Loops whose PCs run across 2**63: a fall-through from the last
    fetch line below it into the first above, then taken jumps to lines
    on either side."""
    top = 2 ** 63
    b = TraceBuilder(pc0=top - 96)
    for rep in range(40):
        for i in range(40):
            b.alu(dst=1 + i % 8, src1=1 + (i + 3) % 8)
        b.fp(OpClass.FP_ADD, dst=40, src1=41, src2=40)
        b.load(dst=9, addr=0x8000 + 64 * rep)
        b.jump(target=(top - 96 - 64 * (rep % 3)) if rep % 2
               else top + 64 * (rep % 5))
        for _ in range(6):
            b.alu(dst=2, src1=2)
        b.branch(taken=True, target=top - 96)
    return b.build()


def test_ooo_fetch_lines_across_2_63_bit_identical():
    """The OoO engine's fetch line is ``pc >> 6`` of the unsigned PC, as
    in the reference loop, so a sequential crossing of 2**63 is
    next-line fetch-ahead on both paths, not a redirect on one."""
    trace = _straddling_2_63()
    assert trace.pc.min() < 2 ** 63 <= trace.pc.max()
    off, on = _pair(get_config("MediumBOOM"))
    assert (dataclasses.asdict(System(on).run(trace))
            == dataclasses.asdict(System(off).run(trace)))


@pytest.mark.parametrize("name", ["Rocket1", "BananaPi-K1", "MILKVSim"])
def test_cpi_stack_exact_sum_and_identical(name):
    """Accelerated runs must keep the CPI stack's exact-sum invariant and
    reproduce the reference attribution bucket for bucket."""
    stacks = {}
    for mode in ("off", "on"):
        memo.clear_caches()
        system = System(get_config(name).with_(accel=mode))
        trace = get_kernel("MM").build(scale=0.1)
        reg = StatsRegistry(system)
        system.warm(trace)
        base = reg.snapshot()
        result = system.run(trace)
        stack = cpi_stack(system, result, reg.delta(base))
        assert sum(stack.buckets.values()) == result.cycles
        assert set(stack.buckets) == set(BUCKETS)
        stacks[mode] = stack
    assert stacks["on"].to_dict() == stacks["off"].to_dict()


def test_checkpoint_restore_mid_run_with_accel():
    """Interrupt an accelerated lockstep run mid-flight, checkpoint,
    restore into a fresh accelerated system, and finish: the result must
    match the uninterrupted reference (accel=off) run bit for bit."""
    cfg_on = get_config("Rocket1").with_(accel="on")
    cfg_off = get_config("Rocket1").with_(accel="off")
    trace = get_kernel("MM").build(scale=0.05)

    ref = System(cfg_off).run_parallel([trace], quantum=512, chunk=256)[0]

    run = System(cfg_on).start_parallel([trace], quantum=512, chunk=256)
    for _ in range(4):
        if run.done:
            break
        run.step()
    assert not run.done  # the interruption must land mid-run
    ckpt = run.checkpoint()

    resumed = System(cfg_on).restore(ckpt, [trace])
    resumed.run()
    got = resumed.results()[0]
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)
