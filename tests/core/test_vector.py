"""RVV vector-unit model tests."""

import numpy as np
import pytest

from repro.core.inorder import InOrderConfig, InOrderCore
from repro.core.vector import VectorConfig
from repro.isa.trace import TraceBuilder
from repro.soc import BANANA_PI_HW, System

from . import loop_pins
from .conftest import make_port
from .loop_pins import axpy_vector, k1_with_rvv


def vcfg(**kw):
    return VectorConfig(**kw)


def loop_pcs(t):
    t.pc[:] = 0x1_0000 + (np.arange(len(t), dtype=np.uint64) % 64) * 4
    return t


def axpy_scalar(n):
    from repro.isa.opcodes import OpClass

    b = TraceBuilder()
    for i in range(n):
        b.load(40, 0x100000 + i * 8)
        b.load(41, 0x200000 + i * 8)
        b.fp(OpClass.FP_FMA, 42, 40, 41)
        b.store(42, 0x300000 + i * 8)
    return loop_pcs(b.build())


# ------------------------------------------------------------ config

def test_vector_config_validation():
    with pytest.raises(ValueError):
        VectorConfig(vlen_bits=0)
    with pytest.raises(ValueError):
        VectorConfig(lane_bits=100)  # not a multiple of 8
    with pytest.raises(ValueError):
        VectorConfig(startup=-1)


def test_beat_arithmetic():
    v = VectorConfig(vlen_bits=256, lane_bits=128, mem_bits_per_cycle=128)
    assert v.exec_beats(256) == 2
    assert v.exec_beats(128) == 1
    assert v.mem_beats(32) == 2
    assert v.mem_beats(16) == 1


def test_vector_trace_width_validation():
    b = TraceBuilder()
    with pytest.raises(ValueError):
        b.vload(40, 0x1000, 0)
    with pytest.raises(ValueError):
        b.vload(40, 0x1000, 300)


# ------------------------------------------------------------ execution

def test_scalar_core_rejects_vector_ops():
    core = InOrderCore(InOrderConfig(), make_port())
    b = TraceBuilder()
    b.vload(40, 0x1000, 32)
    with pytest.raises(ValueError, match="no vector unit"):
        core.run(b.build())


def test_vector_unit_speeds_up_streaming():
    n = 2048
    cfg = k1_with_rvv()
    s_sys, v_sys = System(cfg), System(cfg)
    s_sys.run(axpy_scalar(n))
    v_sys.run(axpy_vector(n))
    r_s = s_sys.run(axpy_scalar(n))
    r_v = v_sys.run(axpy_vector(n))
    assert r_v.cycles < 0.6 * r_s.cycles  # >1.7x from 256-bit vectors


def test_vector_presence_does_not_change_scalar_timing():
    n = 1500
    plain, rvv = System(BANANA_PI_HW), System(k1_with_rvv())
    plain.run(axpy_scalar(n))
    rvv.run(axpy_scalar(n))
    assert plain.run(axpy_scalar(n)).cycles == rvv.run(axpy_scalar(n)).cycles


def test_wider_lanes_are_faster():
    n = 2048
    narrow = System(k1_with_rvv(lane_bits=64, mem_bits_per_cycle=64))
    wide = System(k1_with_rvv(lane_bits=256, mem_bits_per_cycle=256))
    t = axpy_vector(n)
    narrow.run(t)
    wide.run(t)
    assert wide.run(t).cycles < narrow.run(t).cycles


def test_vector_loads_touch_all_lines():
    cfg = k1_with_rvv()
    sys_ = System(cfg)
    b = TraceBuilder()
    # one 128-byte vector load spans two cache lines
    b.vload(40, 0x40_0000, 128)
    r = sys_.run(loop_pcs(b.build()))
    assert sys_.tiles[0].port.l1d.stats.accesses >= 2


def test_vector_twin_kernels_build():
    from repro.workloads.microbench.vectorbench import vector_twin

    k = vector_twin("DP1d")
    t = k.build(scale=0.1)
    assert len(t) > 10
    with pytest.raises(KeyError):
        vector_twin("MM")


def test_rvv_ablation_shape():
    """The extension question: vectorising DP1d clearly helps the K1."""
    from repro.workloads.microbench import get_kernel
    from repro.workloads.microbench.vectorbench import vector_twin

    cfg = k1_with_rvv()
    scalar = get_kernel("DP1d").build(scale=0.2)
    vector = vector_twin("DP1d").build(scale=0.2)
    s_sys, v_sys = System(cfg), System(cfg)
    s_sys.run(scalar)
    v_sys.run(vector)
    t_s = s_sys.run(scalar).cycles
    t_v = v_sys.run(vector).cycles
    assert t_v < 0.7 * t_s


def test_ooo_core_rejects_vector_ops():
    from repro.core.ooo import OoOConfig, OoOCore

    core = OoOCore(OoOConfig(), make_port())
    b = TraceBuilder()
    b.vfma(42, 40, 41)
    with pytest.raises(ValueError, match="no vector unit"):
        core.run(b.build())


def test_vector_unit_matches_loop_pins():
    """Vector loads, stores, ALU and FMA ops on the K1 core, cold and
    warm, as pinned."""
    loop_pins.check("vector/K1-RVV")


def test_ooo_no_vector_unit_error_matches_loop_pins():
    """The OoO core's error, the state it leaves and the next run."""
    objs = loop_pins.check("no_vector_unit/MediumBOOM")
    assert "no vector unit" in objs["error"]
