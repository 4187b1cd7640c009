"""ColumnBuilder == the scalar TraceBuilder run once per iteration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import memo
from repro.isa import ColumnBuilder, OpClass, Trace, TraceBuilder

PC0 = 0x1_0000
N = 23


def _scalar_reference() -> Trace:
    """The per-uop loop the column body below must reproduce."""
    rng = np.random.default_rng(5)
    outcome = rng.integers(0, 2, N).astype(bool)
    case = rng.integers(0, 4, N)
    b = TraceBuilder(pc0=PC0)
    for i in range(N):
        b.pc = PC0
        b.load(5 + i % 4, 0x2000 + i * 8, base=10, size=4)
        if i % 3 == 0:                       # a slot only some iterations run
            b.mul(6, 5, 11)
        b.branch(bool(outcome[i]), src1=5, target=b.pc + 12)
        b.fp(OpClass.FP_FMA, 40, 41, 42)
        call_pc = b.pc
        b.call(PC0 + 0x400)
        b.store(6, 0x3000 + int(case[i]) * 64, base=12)
        b.ret(call_pc + 4)
        b.jump(PC0 + 0x800 + int(case[i]) * 32)
        b.vload(40, 0x4000 + i * 32, 32, base=10)
        b.vfma(42, 40, 41)
        b.valu(43, 42)
        b.vstore(43, 0x5000 + i * 32, 32, base=12)
        b.alu(30, 30)
        b.branch(i != N - 1, src1=30, target=PC0)
    return b.build()


def _column_build() -> Trace:
    rng = np.random.default_rng(5)
    outcome = rng.integers(0, 2, N).astype(bool)
    case = rng.integers(0, 4, N)
    i = np.arange(N)
    b = ColumnBuilder(N, pc0=PC0)
    b.load(5 + i % 4, 0x2000 + i * 8, base=10, size=4)
    b.mul(6, 5, 11, where=i % 3 == 0)
    b.branch(outcome, src1=5, target=b.pc + 12)
    b.fp(OpClass.FP_FMA, 40, 41, 42)
    call_pc = b.pc
    b.call(PC0 + 0x400)
    b.store(6, 0x3000 + case * 64, base=12)
    b.ret(call_pc + 4)
    b.jump(PC0 + 0x800 + case * 32)
    b.vload(40, 0x4000 + i * 32, 32, base=10)
    b.vfma(42, 40, 41)
    b.valu(43, 42)
    b.vstore(43, 0x5000 + i * 32, 32, base=12)
    b.alu(30, 30)
    b.branch(i != N - 1, src1=30, target=PC0)
    return b.build()


def test_columns_equal_the_scalar_loop_byte_for_byte():
    want, got = _scalar_reference(), _column_build()
    for name in Trace.COLUMNS:
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert memo.trace_digest(got) == memo.trace_digest(want)


def test_pc_is_a_per_iteration_array_and_assignable():
    b = ColumnBuilder(4, pc0=PC0)
    assert b.pc.shape == (4,) and b.pc.tolist() == [PC0] * 4
    b.alu(5, 5, where=np.array([True, False, True, False]))
    assert b.pc.tolist() == [PC0 + 4, PC0, PC0 + 4, PC0]
    b.pc = PC0 + 64 * np.arange(4)
    b.jump(b.pc + 8, where=np.array([True, True, False, False]))
    assert b.pc.tolist() == [PC0 + 8, PC0 + 72, PC0 + 128, PC0 + 192]
    t = b.build()
    assert t.op.tolist() == [OpClass.INT_ALU, OpClass.JUMP, OpClass.JUMP,
                             OpClass.INT_ALU]
    assert t.pc.tolist() == [PC0, PC0, PC0 + 64, PC0]


def test_empty_and_invalid():
    assert len(ColumnBuilder(0).build()) == 0
    b = ColumnBuilder(0)
    b.alu(5, 5)
    assert len(b.build()) == 0
    with pytest.raises(ValueError):
        ColumnBuilder(2).fp(OpClass.INT_ALU, 40)
    with pytest.raises(ValueError):
        ColumnBuilder(2).vload(40, 0, 256)


def test_loop_emitter_splices_a_column_loop_into_a_scalar_program():
    from repro.workloads.base import LoopEmitter

    def program(loop) -> Trace:
        tb = TraceBuilder(pc0=PC0)
        tb.alu(5, 0, 0)                       # irregular preamble
        tb.call(PC0 + 0x100)
        loop(tb)
        tb.ret(PC0 + 8)                       # continues after the loop
        return tb.build()

    def scalar_loop(tb):
        top = tb.pc
        for i in range(5):
            tb.pc = top
            tb.load(6, 0x2000 + i * 8)
            tb.alu(30, 30)
            tb.branch(i != 4, src1=30, target=top)

    def column_loop(tb):
        LoopEmitter(tb).loop(5, lambda b, i: b.load(6, 0x2000 + i * 8))

    want, got = program(scalar_loop), program(column_loop)
    assert memo.trace_digest(got) == memo.trace_digest(want)
    assert got.pc[-1] == PC0 + 0x100 + 12
