"""Execution-unit microbenchmarks (paper Table 1, 5 kernels).

These separate dependency-chain latency (ED1, EM1, EM5) from raw issue
bandwidth (EF, EI): the chains expose result-forwarding latency, the
independent streams expose decode/issue width and FU port counts.
"""

from __future__ import annotations

from ...isa.opcodes import OpClass
import numpy as np

from ...isa.trace import ColumnBuilder, Trace
from ..base import KernelSpec, LoopEmitter, MicroKernel

__all__ = ["ED1", "EM1", "EM5", "EF", "EI"]


class ED1(MicroKernel):
    spec = KernelSpec("ED1", "Execution", "Int - Length 1 dependency chain")
    default_ops = 30_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 10, scale)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for _ in range(8):
                b.alu(5, 5, 11)  # serial chain through r5

        em.loop(n, body)
        return em.build()


class EM1(MicroKernel):
    spec = KernelSpec("EM1", "Execution", "Int - Length 1 dependency chain")
    default_ops = 24_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 10, scale)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for _ in range(8):
                b.mul(5, 5, 11)  # serial multiply chain

        em.loop(n, body)
        return em.build()


class EM5(MicroKernel):
    spec = KernelSpec("EM5", "Execution", "Int - Length 5 dependency chain")
    default_ops = 24_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 12, scale)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            # 5 chains of multiplies advanced round-robin: enough ILP to
            # cover a pipelined multiplier, still latency-bound if not
            for k in range(10):
                reg = 5 + k % 5
                b.mul(reg, reg, 11)

        em.loop(n, body)
        return em.build()


class EF(MicroKernel):
    spec = KernelSpec("EF", "Execution", "FP - 8 Independent instructions")
    default_ops = 30_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 10, scale)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for k in range(8):
                b.fp(OpClass.FP_FMA, 40 + k, 50, 51)  # 8 independent FMAs

        em.loop(n, body)
        return em.build()


class EI(MicroKernel):
    spec = KernelSpec("EI", "Execution", "Int - 8 Independent computations")
    default_ops = 30_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 10, scale)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for k in range(8):
                b.alu(5 + k, 20, 21)  # 8 independent ALU ops

        em.loop(n, body)
        return em.build()
