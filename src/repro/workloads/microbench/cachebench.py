"""Cache and memory microbenchmarks (paper Table 1: 16 cache + 2 memory).

Footprints are chosen against the studied hierarchies (32-64 KiB L1,
512 KiB - 1 MiB L2, 0/64 MiB LLC):

* L1-resident kernels use <= 8 KiB,
* L2 kernels use 256 KiB (beyond any L1, inside every L2),
* the MM/MM_st linked lists walk a 128 MiB footprint — beyond even the
  MILK-V's 64 MiB LLC, so they always exercise DRAM.
"""

from __future__ import annotations

import numpy as np

from ...isa.trace import ColumnBuilder, Trace
from ..base import CODE_BASE, DATA_BASE, KernelSpec, LoopEmitter, MicroKernel

__all__ = [
    "MC", "MCS", "MD", "MI", "MIM", "MIM2", "MIP",
    "ML2", "ML2_BW_ld", "ML2_BW_ldst", "ML2_BW_st", "ML2_st",
    "STL2", "STL2b", "STc", "M_Dyn", "MM", "MM_st",
]

_D = DATA_BASE + 0x400_0000
_LINE = 64


def _chase_addresses(footprint: int, count: int, seed: int,
                     base: int) -> np.ndarray:
    """Addresses of a pointer chase over *footprint* bytes.

    The visit order is a fixed random tour of the footprint's lines,
    wrapped modulo the line count: resident footprints are revisited in
    the same order every lap (steady-state cache hits), while footprints
    with more lines than *count* never repeat (every access is cold —
    the "non-cache-resident" regime of MM/MM_st).
    """
    nlines = max(2, footprint // _LINE)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(nlines)
    idx = perm[np.arange(count) % nlines]
    return (base + idx.astype(np.int64) * _LINE).astype(np.uint64)


class _ConflictKernel(MicroKernel):
    """Round-robin over lines that collide in a 64-set L1 (4 KiB stride)."""

    with_stores = False
    distinct = 12     #: lines in rotation: > 8 ways on a 64-set L1
    stride = 4096     #: one full 64-set x 64 B way
    default_ops = 30_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // (3 if self.with_stores else 2), scale)
        em = LoopEmitter()
        d = self.distinct

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            addr = _D + (i % d) * self.stride
            b.load(5 + i % 4, addr, base=10)
            if self.with_stores:
                b.store(5 + i % 4, addr + 8, base=10)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class MC(_ConflictKernel):
    spec = KernelSpec("MC", "Cache", "Conflict misses")
    with_stores = False


class MCS(_ConflictKernel):
    spec = KernelSpec("MCS", "Cache", "Conflict misses with stores")
    with_stores = True


class _ChaseKernel(MicroKernel):
    """Dependent pointer chase(s) over a fixed footprint.

    ``streams`` > 1 interleaves that many *independent* chases (each a
    serial dependency chain through its own pointer register).  The
    MM/MM_st kernels use several streams — the paper describes them as
    stressing DRAM *bandwidth* — which makes L1 MSHR counts and DRAM
    channel/bank parallelism visible, exactly the "unknown memory
    subsystem parameters" axis the study probes.
    """

    footprint = 8 << 10
    with_stores = False
    default_ops = 24_000
    extra_alu = 2
    streams = 1

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        per = (1 + (1 if self.with_stores else 0)) * self.streams + self.extra_alu
        n = self.iters(self.default_ops // per, scale)
        stream_addrs = [
            _chase_addresses(self.footprint // self.streams, n, seed + 17 * k,
                             _D + 0x800_0000 + k * (self.footprint // self.streams))
            for k in range(self.streams)
        ]
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for k in range(self.streams):
                reg = 5 + k
                b.load(reg, stream_addrs[k], base=reg)
                if self.with_stores:
                    b.store(14, stream_addrs[k] + np.uint64(8), base=reg)
            for _ in range(self.extra_alu):
                b.alu(13, 13, 11)

        em.loop(n, body)
        return em.build()


class MD(_ChaseKernel):
    spec = KernelSpec("MD", "Cache", "Cache resident linked list traversal")
    footprint = 8 << 10


class ML2(_ChaseKernel):
    spec = KernelSpec("ML2", "Cache", "L2 linked-list")
    footprint = 256 << 10


class ML2_st(_ChaseKernel):
    spec = KernelSpec("ML2_st", "Cache", "L2 linked-list (sts)")
    footprint = 256 << 10
    with_stores = True


class MM(_ChaseKernel):
    spec = KernelSpec("MM", "Memory", "Non-cache resident linked-list")
    footprint = 128 << 20
    default_ops = 20_000
    extra_alu = 2
    streams = 4
    needs_warmup = False  # every line is visited once: always cold


class MM_st(_ChaseKernel):
    spec = KernelSpec("MM_st", "Memory", "Non-cache resident linked-list (sts)")
    footprint = 128 << 20
    default_ops = 20_000
    with_stores = True
    streams = 4
    needs_warmup = False


class MI(MicroKernel):
    spec = KernelSpec("MI", "Cache", "Independent access, cache resident")
    default_ops = 30_000
    footprint = 8 << 10

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 3, scale)
        rng = np.random.default_rng(seed)
        lines = self.footprint // _LINE
        offs = rng.integers(0, lines, size=n)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            b.load(5 + i % 8, _D + 0xC00_0000 + offs * _LINE, base=10)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class MIM(MicroKernel):
    spec = KernelSpec("MIM", "Cache", "Independent access, no conflicts")
    default_ops = 30_000
    footprint = 16 << 10

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 3, scale)
        lines = self.footprint // _LINE
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            b.load(5 + i % 8, _D + 0xD00_0000 + (i % lines) * _LINE, base=10)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class MIM2(MicroKernel):
    spec = KernelSpec("MIM2", "Cache", "Independent access - 2 coalescing ops")
    default_ops = 30_000
    footprint = 16 << 10

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 4, scale)
        lines = self.footprint // _LINE
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            addr = _D + 0xE00_0000 + (i % lines) * _LINE
            b.load(5, addr, base=10)
            b.load(6, addr + 8, base=10)  # same line: coalesces in the MSHR
            b.alu(9, 5, 6)

        em.loop(n, body)
        return em.build()


class MIP(MicroKernel):
    spec = KernelSpec("MIP", "Cache", "Instruction cache misses")
    default_ops = 24_000
    #: beyond every L1I *and* L2, inside the MILK-V LLC: this is the
    #: footprint where FireSim's idealised SRAM-like LLC makes the MIP
    #: kernel "substantially outperform the hardware" (paper Fig 2)
    code_bytes = 2 << 20
    #: the footprint must stay beyond the 1 MiB L2 for the LLC regime
    min_harness_scale = 0.7

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        # scale shrinks the *code footprint*, keeping exactly one full lap
        # per pass: the warmup lap installs the tour below L2, and the
        # measured lap (cyclic access thrashes an LRU L2 completely)
        # streams from whatever sits underneath — FireSim's idealised LLC
        # or the hardware's realistic-latency one
        nlines = max(256, int(self.code_bytes * min(1.0, scale)) // _LINE)
        rng = np.random.default_rng(seed)
        tour = rng.permutation(nlines)
        code0 = CODE_BASE + 0x10_0000
        b = ColumnBuilder(nlines)
        b.pc = code0 + tour * _LINE
        b.alu(5, 5, 11)
        b.alu(6, 5, 12)
        b.jump(code0 + np.roll(tour, -1) * _LINE)
        return b.build()


class _StreamL2(MicroKernel):
    """Streaming over a 256 KiB buffer: loads, stores, or both."""

    do_load = True
    do_store = False
    default_ops = 30_000
    footprint = 256 << 10

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        per = 1 + int(self.do_load) + int(self.do_store)
        n = self.iters(self.default_ops // per, scale)
        lines = self.footprint // _LINE
        em = LoopEmitter()
        base = _D + 0xF00_0000

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            addr = base + (i % lines) * _LINE
            if self.do_load:
                b.load(5 + i % 4, addr, base=10)
            if self.do_store:
                b.store(5 + i % 4, addr + 8, base=10)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class ML2_BW_ld(_StreamL2):
    spec = KernelSpec("ML2_BW_ld", "Cache", "L2 linked-list - B/W limited (lds)")
    do_load, do_store = True, False


class ML2_BW_ldst(_StreamL2):
    spec = KernelSpec("ML2_BW_ldst", "Cache",
                      "L2 linked-list - B/W limited (ld/sts)")
    do_load, do_store = True, True


class ML2_BW_st(_StreamL2):
    spec = KernelSpec("ML2_BW_st", "Cache", "L2 linked-list - B/W limited (sts)")
    do_load, do_store = False, True


class STL2(MicroKernel):
    spec = KernelSpec("STL2", "Cache", "Repeatedly store, L2 resident")
    default_ops = 30_000
    footprint = 256 << 10

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 2, scale)
        lines = self.footprint // _LINE
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            b.store(5, _D + 0x1100_0000 + (i % lines) * _LINE, base=10)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class STL2b(MicroKernel):
    spec = KernelSpec("STL2b", "Cache", "Occasional stores, L2 resident")
    default_ops = 30_000
    footprint = 256 << 10

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 9, scale)
        lines = self.footprint // _LINE
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for k in range(7):
                b.alu(5 + k % 4, 10, 11)
            b.store(5, _D + 0x1200_0000 + (i % lines) * _LINE, base=10)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class STc(MicroKernel):
    spec = KernelSpec("STc", "Cache", "Repeated consecutive L1 store")
    default_ops = 30_000

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 3, scale)
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            b.store(5, _D + 0x1300_0000 + (i % 8) * 8, base=10)
            b.store(6, _D + 0x1300_0000 + (i % 8) * 8 + 8, base=10)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class M_Dyn(MicroKernel):
    spec = KernelSpec("M_Dyn", "Cache", "Load store w/ dynamic dependencies")
    default_ops = 30_000
    footprint = 4 << 10

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        n = self.iters(self.default_ops // 4, scale)
        rng = np.random.default_rng(seed)
        slots = self.footprint // 8
        offs = rng.integers(0, slots, size=n)
        em = LoopEmitter()
        base = _D + 0x1400_0000

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            addr = base + offs * 8
            b.store(5, addr, base=10)
            b.load(6, addr, base=10)   # store-to-load through memory
            b.alu(5, 6, 11)            # next store value depends on the load
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()
