"""Workload abstractions shared by MicroBench, NPB, UME, and LAMMPS.

Two workload shapes exist:

* :class:`MicroKernel` — a single-core kernel that *builds an instruction
  trace* (the cycle-level drive mode).  The harness runs the trace once to
  warm caches/predictors and once for measurement, the way microbenchmark
  harnesses run a warmup pass before timing.
* MPI applications (NPB/UME/LAMMPS) are generator programs for
  :mod:`repro.smpi`; they use :class:`PhaseEmitter` to lower their NumPy
  compute phases into representative traces.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..isa.opcodes import OpClass
from ..isa.trace import ColumnBuilder, Trace, TraceBuilder

__all__ = ["KernelSpec", "MicroKernel", "LoopEmitter", "PhaseEmitter", "CODE_BASE"]

#: Base address for synthetic kernel code.
CODE_BASE = 0x1_0000
#: Base address for kernel data regions (kernels offset from here).
DATA_BASE = 0x1000_0000


@dataclass(frozen=True)
class KernelSpec:
    """Identity of one microbenchmark (paper Table 1 row)."""

    name: str
    category: str       #: "Control Flow" | "Data" | "Execution" | "Cache" | "Memory"
    description: str
    broken: bool = False  #: CRm segfaults on all platforms (paper §3.2.1)


class MicroKernel(abc.ABC):
    """A trace-building microbenchmark kernel."""

    spec: KernelSpec

    #: measured dynamic ops at scale=1 (approximate)
    default_ops: int = 30_000

    #: whether the harness should run an (identical) warmup pass first;
    #: kernels that must see cold lines every pass (MM, MM_st) disable it
    needs_warmup: bool = True

    #: harness scales below this are clamped: kernels whose behaviour
    #: depends on a footprint threshold (e.g. MIP's code size vs the L2
    #: capacity) declare the smallest scale that preserves the regime
    min_harness_scale: float = 0.0

    @abc.abstractmethod
    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        """Build the measured trace.  ``scale`` shrinks/grows iteration
        counts (tests use small scales); the *footprints* stay fixed so the
        kernel keeps stressing the same level of the hierarchy."""

    def iters(self, base: int, scale: float) -> int:
        """Scaled iteration count, at least 4."""
        return max(4, int(base * scale))

    def __repr__(self) -> str:
        return f"<MicroKernel {self.spec.name} ({self.spec.category})>"


class LoopEmitter:
    """Emit a counted loop at stable static PCs, a column at a time.

    Re-running a body with the same code addresses is what lets branch
    predictors and the I-cache behave as they would on a real loop: every
    iteration starts at the loop head, and a backedge branch is emitted
    automatically.
    """

    def __init__(self, builder: TraceBuilder | None = None,
                 pc0: int = CODE_BASE) -> None:
        self.b = builder or TraceBuilder(pc0=pc0)
        self._top = self.b.pc

    def loop(self, n: int, body, counter_reg: int = 30) -> TraceBuilder:
        """Emit *n* iterations of ``body(b, i)`` plus counter and backedge.

        ``body`` runs **once**: ``b`` is a :class:`ColumnBuilder` and ``i``
        is ``np.arange(n)``, so each emit call is one static slot of the
        loop whose operands are scalars or per-iteration arrays.  The
        backedge is taken for every iteration but the last — the
        completely-biased pattern real counted loops produce.
        """
        cols = ColumnBuilder(n, pc0=self._top)
        i = np.arange(n)
        body(cols, i)
        cols.alu(counter_reg, counter_reg)          # decrement counter
        cols.branch(i != n - 1, src1=counter_reg, target=self._top)
        self.b.extend_trace(cols.build())
        if n:
            self.b.pc = int(cols.pc[-1])
        return self.b

    def build(self) -> Trace:
        return self.b.build()


def _per_elem_counts(rate: float, n: int) -> np.ndarray:
    """Ops each of *n* elements gets at *rate* ops per element.

    Runs the float accumulator ``acc += rate; while acc >= 1: emit;
    acc -= 1`` sequentially — its rounding decides which element a
    fractional op lands on, so it cannot be replaced by a closed form.
    """
    if rate == int(rate):
        return np.full(n, int(rate), dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    acc = 0.0
    for i in range(n):
        acc += rate
        k = int(acc)
        counts[i] = k
        acc -= k        # exact: same value as k subtractions of 1.0
    return counts


class PhaseEmitter:
    """Lower an application compute phase into a representative trace.

    Applications know their op mix (loads/stores/flops/int ops per element)
    and their memory-access structure (streaming arrays, indexed gathers).
    ``emit`` produces a trace with that mix and *real* address streams, so
    the cache hierarchy sees the application's locality, while the loop
    body keeps stable PCs for the front end.
    """

    def __init__(self, pc0: int = CODE_BASE) -> None:
        self.pc0 = pc0

    def emit(
        self,
        loads: np.ndarray | None = None,
        stores: np.ndarray | None = None,
        fp_per_elem: float = 0.0,
        int_per_elem: float = 2.0,
        fp_op: OpClass = OpClass.FP_FMA,
        fp_chain: bool = False,
        elems: int | None = None,
    ) -> Trace:
        """Build a loop trace: per element, the given loads/stores plus the
        fp/int op mix.  ``loads``/``stores`` are address arrays consumed one
        per element (the longer one sets the element count unless ``elems``
        is given); ``fp_chain`` makes the FP ops a dependency chain
        (reductions) instead of independent (streaming)."""
        la = np.asarray(loads if loads is not None else (), dtype=np.uint64)
        sa = np.asarray(stores if stores is not None else (), dtype=np.uint64)
        n = elems if elems is not None else max(len(la), len(sa), 1)

        def address_slots(addrs: np.ndarray):
            """(addresses, their running index, mask) of each slot that
            walks *addrs* at len/n per element, never past its end."""
            counts = _per_elem_counts(len(addrs) / n if n else 0.0, n)
            # addresses consumed after / before each element
            done = np.minimum(np.cumsum(counts), len(addrs))
            first = done - np.diff(done, prepend=0)
            for k in range(int((done - first).max(initial=0))):
                idx = first + k
                live = idx < done
                yield addrs[np.where(live, idx, 0)], idx, live

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            for addr, li, live in address_slots(la):
                b.load(40 + li % 4, addr, base=10, where=live)
            counts = _per_elem_counts(int_per_elem, n)
            for k in range(int(counts.max(initial=0))):
                b.alu(10 + i % 4, 10 + i % 4, 11, where=counts > k)
            counts = _per_elem_counts(fp_per_elem, n)
            for k in range(int(counts.max(initial=0))):
                if fp_chain:
                    b.fp(fp_op, 44, 44, 40 + i % 4, where=counts > k)
                else:
                    b.fp(fp_op, 45 + i % 8, 40 + i % 4, 41, where=counts > k)
            for addr, _, live in address_slots(sa):
                b.store(45 + i % 8, addr, base=12, where=live)

        em = LoopEmitter(pc0=self.pc0)
        em.loop(n, body)
        return em.build()
