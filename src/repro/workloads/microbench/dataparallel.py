"""Data-parallel microbenchmarks (paper Table 1, 5 kernels).

Streaming array loops: load operands, do FP work, store results.  DPT/DPTd
model `sin()` as the libm call it compiles to — a call, a polynomial-kernel
dependency chain of FP ops, and a return — so they are FP-latency-bound
rather than bandwidth-bound.
"""

from __future__ import annotations

from ...isa.opcodes import OpClass
import numpy as np

from ...isa.trace import ColumnBuilder, Trace
from ..base import CODE_BASE, DATA_BASE, KernelSpec, LoopEmitter, MicroKernel

__all__ = ["DP1d", "DP1f", "DPT", "DPTd", "DPcvt"]

_A = DATA_BASE + 0x100_0000
_B = DATA_BASE + 0x140_0000
_C = DATA_BASE + 0x180_0000


class _StreamLoop(MicroKernel):
    """c[i] = f(a[i], b[i]) over arrays sized to stream through the caches."""

    elem_bytes = 8
    fp_ops = 1
    fp_kind = OpClass.FP_FMA
    default_ops = 32_000
    array_elems = 16384  #: 128 KiB double arrays: beyond L1, inside L2

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        per_iter = 4 + self.fp_ops
        n = self.iters(self.default_ops // per_iter, scale)
        eb = self.elem_bytes
        wrap = self.array_elems
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            k = i % wrap
            b.load(40, _A + k * eb, base=10, size=eb)
            b.load(41, _B + k * eb, base=11, size=eb)
            prev = 42 + (i % 4)
            b.fp(self.fp_kind, prev, 40, 41)
            for extra in range(self.fp_ops - 1):
                b.fp(self.fp_kind, prev, prev, 41)
            b.store(prev, _C + k * eb, base=12, size=eb)
            b.alu(9, 9, 13)  # index arithmetic

        em.loop(n, body)
        return em.build()


class DP1d(_StreamLoop):
    spec = KernelSpec("DP1d", "Data", "Data parallel loop - Double arithmetic")
    elem_bytes = 8


class DP1f(_StreamLoop):
    spec = KernelSpec("DP1f", "Data", "Data parallel loop - Float arithmetic")
    elem_bytes = 4
    array_elems = 32768  #: same byte footprint as DP1d


class _SinLoop(MicroKernel):
    """Data-parallel sin(): per element, a libm call whose body is a
    dependent polynomial evaluation (Horner chain of FMAs)."""

    chain = 12
    elem_bytes = 4
    default_ops = 32_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        per_iter = self.chain + 8
        n = self.iters(self.default_ops // per_iter, scale)
        eb = self.elem_bytes
        wrap = 8192
        func = CODE_BASE + 0x2000
        b = ColumnBuilder(n, pc0=CODE_BASE)
        i = np.arange(n)
        k = i % wrap
        b.load(40, _A + k * eb, base=10, size=eb)
        call_pc = b.pc
        b.call(func)
        # range reduction (int + fp) then Horner chain
        b.alu(5, 5, 11)
        b.fp(OpClass.FP_MUL, 41, 40, 50)
        for _ in range(self.chain):
            b.fp(OpClass.FP_FMA, 41, 41, 51)
        b.ret(call_pc + 4)
        b.store(41, _C + k * eb, base=12, size=eb)
        b.alu(9, 9, 13)
        b.branch(i != n - 1, src1=30, target=CODE_BASE)
        return b.build()


class DPT(_SinLoop):
    spec = KernelSpec("DPT", "Data", "Data parallel loop - Sin()")
    chain = 12
    elem_bytes = 4


class DPTd(_SinLoop):
    spec = KernelSpec("DPTd", "Data", "Data parallel loop - Double sin()")
    chain = 18
    elem_bytes = 8


class DPcvt(MicroKernel):
    spec = KernelSpec("DPcvt", "Data", "Data parallel loop - Float to Double")
    default_ops = 32_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 6, scale)
        wrap = 16384
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            k = i % wrap
            b.load(40, _A + k * 4, base=10, size=4)
            b.fp(OpClass.FP_CVT, 41, 40)
            b.fp(OpClass.FP_CVT, 42, 41)  # widen then renormalise
            b.store(42, _C + k * 8, base=12, size=8)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()
