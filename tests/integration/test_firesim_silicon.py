"""Integration tests: FireSim manager, silicon boards, and end-to-end flows."""

import numpy as np
import pytest

from repro.firesim import BXE_U250, FireSimManager, HostModel, host_model_for
from repro.isa import Interpreter, assemble
from repro.silicon import Board, banana_pi, milkv_pioneer
from repro.smpi.comm import Comm
from repro.soc import BANANA_PI_HW, BANANA_PI_SIM, MILKV_SIM, ROCKET1
from repro.workloads.microbench import get_kernel


def small_trace():
    return get_kernel("EI").build(scale=0.05)


# ------------------------------------------------------------ host model

def test_host_model_wall_clock():
    h = HostModel(name="t", host_mhz=60.0, efficiency=1.0)
    # 60M target cycles at 60 MHz = 1 second
    assert h.wall_seconds(60_000_000) == pytest.approx(1.0)
    assert h.slowdown(1.6) == pytest.approx(26.67, rel=0.01)


def test_host_model_validation():
    with pytest.raises(ValueError):
        HostModel(name="t", host_mhz=0)
    with pytest.raises(ValueError):
        HostModel(name="t", host_mhz=60, efficiency=1.5)


def test_host_model_for_silicon_rejected():
    with pytest.raises(ValueError):
        host_model_for(BANANA_PI_HW)


def test_bxe_cluster_spec():
    assert BXE_U250().nodes == 22


# ------------------------------------------------------------ manager

def test_manager_rejects_silicon():
    with pytest.raises(ValueError):
        FireSimManager(BANANA_PI_HW)


def test_manager_trace_report():
    mgr = FireSimManager(ROCKET1)
    rep = mgr.run_trace(small_trace())
    assert rep.design == "Rocket1"
    assert rep.target_cycles > 0
    assert rep.host_seconds > rep.target_seconds  # simulation is slower
    assert rep.slowdown > 20
    assert "Rocket1" in str(rep)


def test_manager_mpi_report():
    def program(comm: Comm):
        yield from comm.compute(small_trace())
        yield from comm.barrier()
        return None

    mgr = FireSimManager(ROCKET1)
    rep = mgr.run_mpi(4, program)
    assert len(rep.ranks) == 4
    assert rep.instructions > 0


def test_manager_reset():
    mgr = FireSimManager(ROCKET1)
    r1 = mgr.run_trace(small_trace())
    mgr.reset()
    r2 = mgr.run_trace(small_trace())
    assert r1.target_cycles == r2.target_cycles  # cold-state reproducible


# ------------------------------------------------------------ boards

def test_board_rejects_firesim_design():
    with pytest.raises(ValueError):
        Board(BANANA_PI_SIM)


def test_board_factories():
    assert banana_pi().config.name == "BananaPi-K1"
    assert milkv_pioneer().config.name == "MILKV-SG2042"


def test_board_time_trace():
    m = banana_pi().time_trace(small_trace())
    assert m.seconds > 0
    assert "BananaPi-K1" in str(m)


# ------------------------------------------------- assembled code end-to-end

def test_assembled_program_through_firesim():
    """Real RV64 machine code -> interpreter trace -> FireSim timing."""
    words = assemble(
        """
            li a0, 0
            li a1, 300
        loop:
            add a0, a0, a1
            addi a1, a1, -1
            bnez a1, loop
            ecall
        """
    )
    interp = Interpreter(words)
    trace = interp.run()
    assert interp.reg("a0") == sum(range(1, 301))

    sim = FireSimManager(ROCKET1).run_trace(trace)
    hw = banana_pi().time_trace(trace)
    assert sim.target_cycles > 0
    # the counted loop is fully predictable: both run near their issue width
    assert hw.seconds <= sim.target_seconds


def test_same_trace_ranks_configs_consistently():
    """A DRAM-bound chase should be slower (in seconds) on every FireSim
    model than on the hardware references."""
    t = get_kernel("MM").build(scale=0.05)
    sim_s = FireSimManager(MILKV_SIM).run_trace(t).target_seconds
    hw_s = milkv_pioneer().time_trace(t, warmup=False).seconds
    assert hw_s < sim_s
