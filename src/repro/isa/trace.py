"""Numpy-backed micro-op trace containers.

A :class:`Trace` is a struct-of-arrays record of a dynamic instruction
stream: op class, register operands, memory address, and branch outcome per
micro-op.  Loop-shaped workload kernels build traces with
:class:`ColumnBuilder` (one call per static slot, operands as per-iteration
arrays), irregular programs with :class:`TraceBuilder` (one call per
micro-op, plus the bulk ``extend*`` methods), and the core timing models in
:mod:`repro.core` consume them.

Register ids: integer registers ``x0..x31`` are ids ``0..31`` (writes to
``x0`` are discarded, as in hardware), floating-point registers ``f0..f31``
are ids ``32..63``, and ``-1`` means "no operand".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .opcodes import FP_OPS, FP_REG_BASE, INT_EXEC_OPS, NUM_REGS, OpClass

__all__ = ["Trace", "TraceBuilder", "ColumnBuilder", "TraceStats", "NUM_REGS",
           "FP_REG_BASE", "trace_digest"]

#: dtype of each :class:`Trace` column, in constructor order
_COLUMN_DTYPES = (np.uint8, np.int16, np.int16, np.int16, np.uint64, np.uint8,
                  np.bool_, np.uint64, np.uint64)


def _vbytes(nbytes: int) -> int:
    """Validate a vector op's byte width (the trace stores it in uint8)."""
    if not 0 < nbytes <= 255:
        raise ValueError(f"vector op width {nbytes} bytes not in (0, 255]")
    return nbytes


@dataclass(frozen=True)
class TraceStats:
    """Aggregate instruction-mix statistics of a trace."""

    total: int
    loads: int
    stores: int
    branches: int
    taken_branches: int
    int_ops: int
    fp_ops: int
    other: int

    def mix(self) -> dict[str, float]:
        """Fractional instruction mix (sums to 1.0 for non-empty traces)."""
        if self.total == 0:
            return {}
        return {
            "load": self.loads / self.total,
            "store": self.stores / self.total,
            "branch": self.branches / self.total,
            "int": self.int_ops / self.total,
            "fp": self.fp_ops / self.total,
            "other": self.other / self.total,
        }


class Trace:
    """Immutable struct-of-arrays micro-op stream.

    Parameters are parallel numpy arrays of equal length; see module
    docstring for register-id conventions.  ``addr`` is a byte address for
    LOAD/STORE/AMO ops and ignored elsewhere; ``taken`` is meaningful only
    for BRANCH ops; ``target`` is the (taken-)target PC for control ops.

    Two derived values live on the trace and die with it: its content
    digest (:func:`trace_digest`) and its compiled form
    (:func:`repro.accel.compile.compiled_trace`), each computed on first use.
    """

    #: the column names, in constructor, hashing and serialization order
    COLUMNS = ("op", "dst", "src1", "src2", "addr", "size", "taken", "pc",
               "target")
    __slots__ = COLUMNS + ("_digest", "_compiled", "__weakref__")

    def __init__(
        self,
        op: np.ndarray,
        dst: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        addr: np.ndarray,
        size: np.ndarray,
        taken: np.ndarray,
        pc: np.ndarray,
        target: np.ndarray,
    ) -> None:
        n = len(op)
        columns = (op, dst, src1, src2, addr, size, taken, pc, target)
        for name, arr, dtype in zip(self.COLUMNS, columns, _COLUMN_DTYPES):
            if len(arr) != n:
                raise ValueError(f"field {name!r} has length {len(arr)}, expected {n}")
            setattr(self, name, np.ascontiguousarray(arr, dtype=dtype))
        self._digest = None
        self._compiled = None

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, sl: slice) -> "Trace":
        if not isinstance(sl, slice):
            raise TypeError("Trace only supports slice indexing")
        return Trace(*(getattr(self, c)[sl] for c in self.COLUMNS))

    def __repr__(self) -> str:
        return f"Trace(n={len(self)})"

    @staticmethod
    def empty() -> "Trace":
        return Trace(*(np.zeros(0, dtype) for dtype in _COLUMN_DTYPES))

    @staticmethod
    def concat(traces: Sequence["Trace"]) -> "Trace":
        """Concatenate traces in program order."""
        if not traces:
            return Trace.empty()
        return Trace(*(np.concatenate([getattr(t, c) for t in traces])
                       for c in Trace.COLUMNS))

    def repeat(self, n: int) -> "Trace":
        """Repeat the trace *n* times back-to-back (same addresses/PCs)."""
        if n < 0:
            raise ValueError("repeat count must be non-negative")
        return Trace(*(np.tile(getattr(self, c), n) for c in self.COLUMNS))

    def stats(self) -> TraceStats:
        """Compute instruction-mix statistics."""
        op = self.op
        loads = int(np.count_nonzero(op == OpClass.LOAD))
        stores = int(np.count_nonzero(op == OpClass.STORE))
        is_branch = op == OpClass.BRANCH
        branches = int(np.count_nonzero(is_branch))
        taken = int(np.count_nonzero(self.taken & is_branch))
        int_mask = np.isin(op, [int(o) for o in INT_EXEC_OPS])
        fp_mask = np.isin(op, [int(o) for o in FP_OPS])
        int_ops = int(np.count_nonzero(int_mask))
        fp_ops = int(np.count_nonzero(fp_mask))
        other = len(op) - loads - stores - branches - int_ops - fp_ops
        return TraceStats(
            total=len(op),
            loads=loads,
            stores=stores,
            branches=branches,
            taken_branches=taken,
            int_ops=int_ops,
            fp_ops=fp_ops,
            other=other,
        )


def trace_digest(trace: Trace) -> str:
    """sha-256 content identity of *trace*: each column's name, dtype and
    bytes in :attr:`Trace.COLUMNS` order.  Computed once and kept on the
    trace."""
    if trace._digest is None:
        h = hashlib.sha256()
        for name in Trace.COLUMNS:
            arr = getattr(trace, name)
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(memoryview(arr).cast("B"))
        trace._digest = h.hexdigest()
    return trace._digest


class TraceBuilder:
    """Incrementally assemble a :class:`Trace`.

    Scalar emit methods (``alu``, ``load``, ``store``, ``branch``, …)
    auto-advance a synthetic PC by 4 bytes per op unless an explicit branch
    redirect is emitted.  Vectorised bulk emission is available through
    :meth:`extend`.
    """

    def __init__(self, pc0: int = 0x1_0000) -> None:
        self._op: list[int] = []
        self._dst: list[int] = []
        self._src1: list[int] = []
        self._src2: list[int] = []
        self._addr: list[int] = []
        self._size: list[int] = []
        self._taken: list[bool] = []
        self._pc: list[int] = []
        self._target: list[int] = []
        self._chunks: list[Trace] = []
        self.pc = int(pc0)

    def __len__(self) -> int:
        return len(self._op) + sum(len(c) for c in self._chunks)

    # -- scalar emission -------------------------------------------------

    def _emit(
        self,
        op: OpClass,
        dst: int = -1,
        src1: int = -1,
        src2: int = -1,
        addr: int = 0,
        size: int = 8,
        taken: bool = False,
        target: int = 0,
    ) -> None:
        self._op.append(int(op))
        self._dst.append(dst)
        self._src1.append(src1)
        self._src2.append(src2)
        self._addr.append(addr)
        self._size.append(size)
        self._taken.append(taken)
        self._pc.append(self.pc)
        self._target.append(target)
        self.pc += 4

    def op(self, opclass: OpClass, dst: int = -1, src1: int = -1, src2: int = -1) -> None:
        """Emit a generic non-memory, non-control op."""
        self._emit(opclass, dst, src1, src2)

    def alu(self, dst: int, src1: int = -1, src2: int = -1) -> None:
        self._emit(OpClass.INT_ALU, dst, src1, src2)

    def mul(self, dst: int, src1: int, src2: int) -> None:
        self._emit(OpClass.INT_MUL, dst, src1, src2)

    def div(self, dst: int, src1: int, src2: int) -> None:
        self._emit(OpClass.INT_DIV, dst, src1, src2)

    def fp(self, opclass: OpClass, dst: int, src1: int = -1, src2: int = -1) -> None:
        if opclass not in FP_OPS:
            raise ValueError(f"{opclass} is not a floating-point op class")
        self._emit(opclass, dst, src1, src2)

    def load(self, dst: int, addr: int, base: int = -1, size: int = 8) -> None:
        self._emit(OpClass.LOAD, dst, base, -1, addr=int(addr), size=size)

    def store(self, src: int, addr: int, base: int = -1, size: int = 8) -> None:
        self._emit(OpClass.STORE, -1, base, src, addr=int(addr), size=size)

    def amo(self, dst: int, src: int, addr: int, size: int = 8) -> None:
        self._emit(OpClass.AMO, dst, src, -1, addr=int(addr), size=size)

    def branch(
        self, taken: bool, src1: int = -1, src2: int = -1, target: int | None = None
    ) -> None:
        """Emit a conditional branch; taken branches redirect the PC."""
        tgt = self.pc + 4 if target is None else int(target)
        self._emit(OpClass.BRANCH, -1, src1, src2, taken=taken, target=tgt)
        if taken:
            self.pc = tgt

    def jump(self, target: int | None = None) -> None:
        tgt = self.pc + 4 if target is None else int(target)
        self._emit(OpClass.JUMP, -1, taken=True, target=tgt)
        self.pc = tgt

    def call(self, target: int, link: int = 1) -> None:
        """Emit a call (jal ra, target)."""
        self._emit(OpClass.CALL, link, taken=True, target=int(target))
        self.pc = int(target)

    def ret(self, target: int, src: int = 1) -> None:
        """Emit a return (jalr x0, ra); *target* is the return address."""
        self._emit(OpClass.RET, -1, src, taken=True, target=int(target))
        self.pc = int(target)

    # -- instrumentation markers (see repro.instrument.markers) ------------

    def marker(self, marker_id: int, value: int = 0, src: int = -1) -> None:
        """Emit a magic-store marker (synth-print analogue).

        The marker is an ordinary 8-byte store whose address encodes
        ``(marker_id, value)`` under the magic tag, so it executes — and
        costs cycles — identically whether or not an instrument decodes
        it.
        """
        from ..instrument.markers import marker_addr
        self.store(src, marker_addr(marker_id, value))

    def region_begin(self, region_id: int) -> None:
        """Open a named region (flamegraph frame push)."""
        from ..instrument.markers import MARKER_REGION_BEGIN
        self.marker(MARKER_REGION_BEGIN, region_id)

    def region_end(self, region_id: int) -> None:
        """Close a named region (flamegraph frame pop)."""
        from ..instrument.markers import MARKER_REGION_END
        self.marker(MARKER_REGION_END, region_id)

    # -- RVV vector emission (see repro.core.vector) -----------------------

    def vload(self, dst: int, addr: int, nbytes: int, base: int = -1) -> None:
        """Vector load of *nbytes* starting at *addr* (<= 255 bytes/op)."""
        self._emit(OpClass.VLOAD, dst, base, -1, addr=int(addr), size=_vbytes(nbytes))

    def vstore(self, src: int, addr: int, nbytes: int, base: int = -1) -> None:
        self._emit(OpClass.VSTORE, -1, base, src, addr=int(addr), size=_vbytes(nbytes))

    def valu(self, dst: int, src1: int = -1, src2: int = -1,
             nbytes: int = 32) -> None:
        self._emit(OpClass.VALU, dst, src1, src2, size=_vbytes(nbytes))

    def vfma(self, dst: int, src1: int = -1, src2: int = -1,
             nbytes: int = 32) -> None:
        self._emit(OpClass.VFMA, dst, src1, src2, size=_vbytes(nbytes))

    # -- vectorised emission ----------------------------------------------

    def _flush_scalars(self) -> None:
        if self._op:
            self._chunks.append(
                Trace(
                    np.array(self._op, dtype=np.uint8),
                    np.array(self._dst, dtype=np.int16),
                    np.array(self._src1, dtype=np.int16),
                    np.array(self._src2, dtype=np.int16),
                    np.array(self._addr, dtype=np.uint64),
                    np.array(self._size, dtype=np.uint8),
                    np.array(self._taken, dtype=np.bool_),
                    np.array(self._pc, dtype=np.uint64),
                    np.array(self._target, dtype=np.uint64),
                )
            )
            self._op.clear(); self._dst.clear(); self._src1.clear()
            self._src2.clear(); self._addr.clear(); self._size.clear()
            self._taken.clear(); self._pc.clear(); self._target.clear()

    def extend_trace(self, trace: Trace) -> None:
        """Append an already-built trace verbatim."""
        self._flush_scalars()
        self._chunks.append(trace)

    def build(self) -> Trace:
        """Finalise and return the accumulated trace."""
        self._flush_scalars()
        if len(self._chunks) == 1:
            return self._chunks[0]
        return Trace.concat(self._chunks)


class ColumnBuilder:
    """Assemble *n* iterations of a loop body one column at a time.

    The emit methods mirror :class:`TraceBuilder`'s, but each call is one
    *static slot* executed by all *n* iterations at once: every argument
    is a scalar or a length-*n* array (one value per iteration).
    :attr:`pc` is a length-*n* array — each iteration's current PC —
    advanced by 4 per slot and redirected, per iteration, by taken
    branches, jumps, calls and returns; assign to it to start a slot
    somewhere else.  A slot that only some iterations execute takes a
    boolean ``where=`` mask.  :meth:`build` interleaves the slots
    row-major (iteration 0's slots, then iteration 1's, ...) into the
    same :class:`Trace` the scalar builder would have produced.
    """

    def __init__(self, n: int, pc0: int = 0x1_0000) -> None:
        self.n = int(n)
        self._slots: list[tuple] = []   # one per emit call: 9 columns + mask
        self.pc = pc0

    @property
    def pc(self) -> np.ndarray:
        return self._pc

    @pc.setter
    def pc(self, value) -> None:
        self._pc = np.broadcast_to(np.asarray(value, dtype=np.int64), (self.n,))

    def _emit(self, op: OpClass, dst=-1, src1=-1, src2=-1, addr=0, size=8,
              taken=False, target=0, where=None) -> None:
        pc = self._pc
        self._slots.append((int(op), dst, src1, src2, addr, size, taken, pc,
                            target, where))
        self._pc = pc + 4 if where is None else np.where(where, pc + 4, pc)

    def _redirect(self, taken, target, where) -> None:
        if where is not None:
            taken = taken & where
        self.pc = np.where(taken, target, self._pc)

    def alu(self, dst, src1=-1, src2=-1, where=None) -> None:
        self._emit(OpClass.INT_ALU, dst, src1, src2, where=where)

    def mul(self, dst, src1, src2, where=None) -> None:
        self._emit(OpClass.INT_MUL, dst, src1, src2, where=where)

    def fp(self, opclass: OpClass, dst, src1=-1, src2=-1, where=None) -> None:
        if opclass not in FP_OPS:
            raise ValueError(f"{opclass} is not a floating-point op class")
        self._emit(opclass, dst, src1, src2, where=where)

    def load(self, dst, addr, base=-1, size=8, where=None) -> None:
        self._emit(OpClass.LOAD, dst, base, -1, addr=addr, size=size, where=where)

    def store(self, src, addr, base=-1, size=8, where=None) -> None:
        self._emit(OpClass.STORE, -1, base, src, addr=addr, size=size, where=where)

    def branch(self, taken, src1=-1, src2=-1, target=None, where=None) -> None:
        """Conditional branch; iterations where it is taken continue at
        *target* (default: fall through either way)."""
        tgt = self._pc + 4 if target is None else np.asarray(target, np.int64)
        self._emit(OpClass.BRANCH, -1, src1, src2, taken=taken, target=tgt,
                   where=where)
        self._redirect(taken, tgt, where)

    def jump(self, target, where=None) -> None:
        tgt = np.asarray(target, np.int64)
        self._emit(OpClass.JUMP, taken=True, target=tgt, where=where)
        self._redirect(True, tgt, where)

    def call(self, target, link: int = 1, where=None) -> None:
        tgt = np.asarray(target, np.int64)
        self._emit(OpClass.CALL, link, taken=True, target=tgt, where=where)
        self._redirect(True, tgt, where)

    def ret(self, target, src: int = 1, where=None) -> None:
        tgt = np.asarray(target, np.int64)
        self._emit(OpClass.RET, -1, src, taken=True, target=tgt, where=where)
        self._redirect(True, tgt, where)

    def vload(self, dst, addr, nbytes: int, base=-1, where=None) -> None:
        self._emit(OpClass.VLOAD, dst, base, -1, addr=addr, size=_vbytes(nbytes),
                   where=where)

    def vstore(self, src, addr, nbytes: int, base=-1, where=None) -> None:
        self._emit(OpClass.VSTORE, -1, base, src, addr=addr, size=_vbytes(nbytes),
                   where=where)

    def valu(self, dst, src1=-1, src2=-1, nbytes: int = 32, where=None) -> None:
        self._emit(OpClass.VALU, dst, src1, src2, size=_vbytes(nbytes), where=where)

    def vfma(self, dst, src1=-1, src2=-1, nbytes: int = 32, where=None) -> None:
        self._emit(OpClass.VFMA, dst, src1, src2, size=_vbytes(nbytes), where=where)

    def build(self) -> Trace:
        """The *n* x slots grid flattened row-major, masked slots dropped."""
        shape = (self.n, len(self._slots))
        columns = []
        for j, dtype in enumerate(_COLUMN_DTYPES):
            grid = np.empty(shape, dtype=dtype)
            for k, slot in enumerate(self._slots):
                grid[:, k] = slot[j]
            columns.append(grid.reshape(-1))
        if any(slot[-1] is not None for slot in self._slots):
            keep = np.empty(shape, dtype=np.bool_)
            for k, slot in enumerate(self._slots):
                keep[:, k] = True if slot[-1] is None else slot[-1]
            keep = keep.reshape(-1)
            if not keep.all():
                columns = [col[keep] for col in columns]
        return Trace(*columns)
