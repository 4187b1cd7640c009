"""Control-flow microbenchmarks (paper Table 1, 12 kernels).

Each kernel isolates one front-end behaviour: branch bias, alternation,
unpredictability, basic-block amortisation, call/return stacks, deep and
tree-shaped recursion, and indirect-jump (switch) target locality.
"""

from __future__ import annotations

import numpy as np

from ...isa.trace import ColumnBuilder, Trace, TraceBuilder
from ..base import CODE_BASE, DATA_BASE, KernelSpec, LoopEmitter, MicroKernel

__all__ = [
    "Cca", "Cce", "CCh", "CChSt", "CCl", "CCm",
    "CF1", "CRd", "CRf", "CRm", "CS1", "CS3",
]


class _BranchPattern(MicroKernel):
    """Shared machinery: a loop whose inner branch follows a pattern."""

    default_ops = 30_000
    body_alu = 3

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        rng = np.random.default_rng(seed)
        n = self.iters(self.default_ops // (self.body_alu + 3), scale)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for k in range(self.body_alu):
                b.alu(5 + k % 4, 10, 11)
            # the studied branch: skips one ALU op when taken
            b.branch(self.taken(i, rng), src1=5, target=b.pc + 8)
            b.alu(9, 9, 10)

        em.loop(n, body)
        return em.build()


class Cca(_BranchPattern):
    spec = KernelSpec("Cca", "Control Flow", "Completely biased branch")

    def taken(self, i, rng):
        return np.ones(len(i), dtype=bool)


class Cce(_BranchPattern):
    spec = KernelSpec("Cce", "Control Flow", "Alternating branches")

    def taken(self, i, rng):
        return i % 2 == 1


class CCh(_BranchPattern):
    spec = KernelSpec("CCh", "Control Flow", "Random control flow")

    def taken(self, i, rng):
        return rng.integers(0, 2, size=len(i)).astype(bool)


class CCm(_BranchPattern):
    spec = KernelSpec("CCm", "Control Flow", "Heavily biased branches")

    def taken(self, i, rng):
        return rng.random(len(i)) < 0.95


class CChSt(MicroKernel):
    spec = KernelSpec("CCh_st", "Control Flow",
                      "Impossible to predict control + stores")
    default_ops = 30_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        rng = np.random.default_rng(seed)
        n = self.iters(self.default_ops // 7, scale)
        outcomes = rng.integers(0, 2, size=n).astype(bool)
        base = DATA_BASE
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            b.alu(5, 10, 11)
            b.alu(6, 5, 11)
            # unpredictable branch selecting one of two store targets
            b.branch(outcomes, src1=5, target=b.pc + 12)
            b.store(6, base + (i % 64) * 8)
            b.jump(b.pc + 8)
            b.store(6, base + 4096 + (i % 64) * 8)

        em.loop(n, body)
        return em.build()


class CCl(MicroKernel):
    spec = KernelSpec("CCl", "Control Flow",
                      "Impossible control w/ large Basic Blocks")
    default_ops = 36_000
    block = 24  #: ALU ops per basic block — amortises each mispredict

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        rng = np.random.default_rng(seed)
        n = self.iters(self.default_ops // (self.block + 2), scale)
        outcomes = rng.integers(0, 2, size=n).astype(bool)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for k in range(self.block):
                b.alu(5 + k % 8, 14, 15)
            b.branch(outcomes, src1=5, target=b.pc + 8)
            b.alu(9, 9, 10)

        em.loop(n, body)
        return em.build()


class CF1(MicroKernel):
    spec = KernelSpec("CF1", "Control Flow",
                      "Inlining test for functions w/ loops")
    default_ops = 30_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 24, scale)
        func = CODE_BASE + 0x400
        loop_top = CODE_BASE
        b = ColumnBuilder(n, pc0=loop_top)
        b.alu(5, 10, 11)
        call_pc = b.pc
        b.call(func)
        # inside the function: a 4-iteration counted inner loop
        for j in range(4):
            b.pc = func
            b.alu(6, 6, 11)
            b.alu(7, 6, 12)
            b.branch(j != 3, src1=6, target=func)
        b.ret(call_pc + 4)
        b.alu(8, 8, 10)
        b.branch(np.arange(n) != n - 1, src1=30, target=loop_top)
        return b.build()


class CRd(MicroKernel):
    spec = KernelSpec("CRd", "Control Flow",
                      "Recursive control flow - 1000 Deep")
    default_ops = 30_000
    depth = 1000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        depth = max(8, int(self.depth * min(1.0, scale)))
        rounds = max(1, int(self.default_ops * scale) // (depth * 10))
        func = CODE_BASE + 0x1000
        sp_base = DATA_BASE + 0x10_0000
        d = np.arange(depth)
        call_pc = np.where(d == 0, CODE_BASE + 0x100, func + 24)
        # descend: call, push ra, decrement, test
        down = ColumnBuilder(depth)
        down.pc = call_pc
        down.call(func)
        down.store(1, sp_base - d * 16, base=2)  # push ra
        down.alu(10, 10, 11)                      # depth counter
        down.branch(d == depth - 1, src1=10, target=func + 40)
        # unwind, deepest frame first: pop ra, return
        up = ColumnBuilder(depth, pc0=func + 40)
        up.load(1, sp_base - d[::-1] * 16, base=2)
        up.ret(call_pc[::-1] + 4)
        return Trace.concat([down.build(), up.build()]).repeat(rounds)


class CRf(MicroKernel):
    spec = KernelSpec("CRf", "Control Flow",
                      "Recursive control flow - Fibonacci")
    default_ops = 30_000
    fib_n = 14

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        # emit the actual fib(n) call tree; shrink n with scale
        fib_n = self.fib_n
        if scale < 1.0:
            fib_n = max(4, int(self.fib_n + np.log2(max(scale, 1e-3))))
        b = TraceBuilder(pc0=CODE_BASE)
        _emit_fib(b, fib_n, CODE_BASE + 0x40, CODE_BASE + 0x200,
                  [DATA_BASE + 0x20_0000])
        return b.build()


def _emit_fib(b: TraceBuilder, n: int, call_site: int, func: int,
              sp: list[int]) -> None:
    """Emit the call of fib(*n*) at *call_site* into *b*.  A plain
    function, not a closure that names itself: that would be a reference
    cycle holding the builder, so the trace would wait for the cyclic
    collector instead of going with its last reference."""
    b.pc = call_site
    b.call(func)
    b.store(1, sp[0], base=2)   # push ra
    sp[0] -= 16
    b.alu(10, 10, 11)           # n compare
    if n < 2:
        b.branch(True, src1=10, target=func + 64)  # base case
        b.pc = func + 64
        b.alu(10, 0, 0)         # result = n
    else:
        b.branch(False, src1=10, target=func + 64)
        _emit_fib(b, n - 1, func + 24, func, sp)
        b.alu(12, 10, 0)        # save result
        _emit_fib(b, n - 2, func + 36, func, sp)
        b.alu(10, 10, 12)       # add results
    sp[0] += 16
    b.load(1, sp[0], base=2)    # pop ra
    b.ret(call_site + 4)


class CRm(MicroKernel):
    """Merge sort — segfaulted on every platform in the paper, so the suite
    registers it as broken and all harnesses exclude it (39 of 40 run)."""

    spec = KernelSpec("CRm", "Control Flow", "Merge sort", broken=True)

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        raise RuntimeError(
            "CRm is marked broken: it segfaulted on all simulated and real "
            "hardware in the study (paper §3.2.1)"
        )


class _Switch(MicroKernel):
    """Indirect-jump (switch) kernels: jump through a table of 16 cases."""

    cases = 16
    period = 1  #: target changes every `period` iterations

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        rng = np.random.default_rng(seed)
        n = self.iters(self.default_ops // 10, scale)
        em = LoopEmitter()
        case_base = CODE_BASE + 0x800
        # pre-draw the case sequence
        raw = rng.integers(0, self.cases, size=(n + self.period - 1) // self.period)
        seq = np.repeat(raw, self.period)[:n]

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            b.alu(5, 10, 11)
            b.load(6, DATA_BASE + seq * 8)           # table load
            b.jump(case_base + seq * 64)             # indirect jump
            # case body (same static pc for modelling simplicity)
            b.alu(7, 6, 11)
            b.alu(8, 7, 12)
            b.jump(b.pc + 8)                         # jump back to loop

        em.loop(n, body)
        return em.build()


class CS1(_Switch):
    spec = KernelSpec("CS1", "Control Flow", "Switch - Different each time")
    period = 1


class CS3(_Switch):
    spec = KernelSpec("CS3", "Control Flow",
                      "Switch - Different every third time")
    period = 3
