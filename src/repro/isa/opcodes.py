"""Micro-op classes and latency tables for the RISC-V timing models.

The timing models in :mod:`repro.core` do not interpret RV64 machine code
directly; they consume streams of *micro-ops*, each tagged with an
:class:`OpClass`.  This mirrors how trace-driven performance models (and
decoded-uop stages of real cores) see the instruction stream: what matters
for timing is the functional-unit class, the register dependencies, and —
for memory ops — the address.

The RV64 front end in :mod:`repro.isa.encoding` decodes real instruction
words down to these classes, and the workload generators in
:mod:`repro.workloads` emit them directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "OpClass",
    "ExecUnit",
    "LatencyTable",
    "DEFAULT_LATENCIES",
    "MEM_OPS",
    "CTRL_OPS",
    "FP_OPS",
    "INT_EXEC_OPS",
    "VECTOR_OPS",
    "NUM_REGS", "FP_REG_BASE",
]

NUM_REGS = 64      #: integer, then FP register ids (see repro.isa.trace)
FP_REG_BASE = 32   #: the id of ``f0``


class OpClass(enum.IntEnum):
    """Functional class of a micro-op.

    The integer values are stable and compact so traces can store them in
    ``uint8`` arrays.
    """

    NOP = 0
    INT_ALU = 1       #: add/sub/logic/shift/slt, 1-cycle integer ops
    INT_MUL = 2       #: integer multiply
    INT_DIV = 3       #: integer divide / remainder
    LOAD = 4          #: memory read
    STORE = 5         #: memory write
    BRANCH = 6        #: conditional branch
    JUMP = 7          #: unconditional jump (jal with rd=x0 etc.)
    CALL = 8          #: jal/jalr that pushes a return address
    RET = 9           #: jalr that pops a return address
    FP_ADD = 10       #: fp add/sub/compare/min/max
    FP_MUL = 11       #: fp multiply
    FP_FMA = 12       #: fused multiply-add
    FP_DIV = 13       #: fp divide
    FP_SQRT = 14      #: fp square root
    FP_CVT = 15       #: int<->fp and single<->double conversions
    FP_MOV = 16       #: fp sign-injection / moves between register files
    CSR = 17          #: csr access / system instruction
    FENCE = 18        #: memory fence
    AMO = 19          #: atomic memory operation
    VLOAD = 20        #: RVV unit-stride/gather vector load
    VSTORE = 21       #: RVV vector store
    VALU = 22         #: RVV integer/logic vector op
    VFMA = 23         #: RVV floating-point vector op (fma class)
    VSETVL = 24       #: vsetvli / vector configuration


#: Ops that access the data memory hierarchy.
MEM_OPS = frozenset({OpClass.LOAD, OpClass.STORE, OpClass.AMO,
                     OpClass.VLOAD, OpClass.VSTORE})

#: RVV vector ops (executed by the optional vector unit).
VECTOR_OPS = frozenset({OpClass.VLOAD, OpClass.VSTORE, OpClass.VALU,
                        OpClass.VFMA, OpClass.VSETVL})

#: Ops that (may) redirect the front end.
CTRL_OPS = frozenset({OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET})

#: Floating-point ops (execute on the FP issue queue in BOOM-like cores).
FP_OPS = frozenset(
    {
        OpClass.FP_ADD,
        OpClass.FP_MUL,
        OpClass.FP_FMA,
        OpClass.FP_DIV,
        OpClass.FP_SQRT,
        OpClass.FP_CVT,
        OpClass.FP_MOV,
    }
)

#: Integer-pipe execution ops (not memory, not control).
INT_EXEC_OPS = frozenset(
    {OpClass.INT_ALU, OpClass.INT_MUL, OpClass.INT_DIV, OpClass.CSR}
)


class ExecUnit(enum.IntEnum):
    """Issue-port / functional-unit class used by the OoO scheduler."""

    ALU = 0
    MUL_DIV = 1
    MEM = 2
    FPU = 3
    BRANCH_UNIT = 4
    VPU = 5


#: Which execution unit each op class occupies.
EXEC_UNIT_OF: dict[OpClass, ExecUnit] = {
    OpClass.NOP: ExecUnit.ALU,
    OpClass.INT_ALU: ExecUnit.ALU,
    OpClass.INT_MUL: ExecUnit.MUL_DIV,
    OpClass.INT_DIV: ExecUnit.MUL_DIV,
    OpClass.LOAD: ExecUnit.MEM,
    OpClass.STORE: ExecUnit.MEM,
    OpClass.AMO: ExecUnit.MEM,
    OpClass.BRANCH: ExecUnit.BRANCH_UNIT,
    OpClass.JUMP: ExecUnit.BRANCH_UNIT,
    OpClass.CALL: ExecUnit.BRANCH_UNIT,
    OpClass.RET: ExecUnit.BRANCH_UNIT,
    OpClass.FP_ADD: ExecUnit.FPU,
    OpClass.FP_MUL: ExecUnit.FPU,
    OpClass.FP_FMA: ExecUnit.FPU,
    OpClass.FP_DIV: ExecUnit.FPU,
    OpClass.FP_SQRT: ExecUnit.FPU,
    OpClass.FP_CVT: ExecUnit.FPU,
    OpClass.FP_MOV: ExecUnit.FPU,
    OpClass.CSR: ExecUnit.ALU,
    OpClass.FENCE: ExecUnit.MEM,
    OpClass.VLOAD: ExecUnit.VPU,
    OpClass.VSTORE: ExecUnit.VPU,
    OpClass.VALU: ExecUnit.VPU,
    OpClass.VFMA: ExecUnit.VPU,
    OpClass.VSETVL: ExecUnit.ALU,
}


@dataclass(frozen=True)
class LatencyTable:
    """Execution latencies (cycles from issue to result-ready) per op class.

    A single table is shared by the in-order and out-of-order models; cores
    differ in *structural* resources, not raw FU latencies, which is also
    how Rocket and BOOM share the same FPU/MulDiv generators in Chipyard.
    """

    int_alu: int = 1
    int_mul: int = 3
    int_div: int = 16
    fp_add: int = 4
    fp_mul: int = 4
    fp_fma: int = 4
    fp_div: int = 13
    fp_sqrt: int = 25
    fp_cvt: int = 2
    fp_mov: int = 1
    csr: int = 3
    amo_extra: int = 4  #: added on top of the cache access for AMOs

    def latency_of(self, op: OpClass) -> int:
        """Fixed execution latency of *op*, excluding memory access time."""
        return _LAT_DISPATCH[op](self)


_LAT_DISPATCH = {
    OpClass.NOP: lambda t: 1,
    OpClass.INT_ALU: lambda t: t.int_alu,
    OpClass.INT_MUL: lambda t: t.int_mul,
    OpClass.INT_DIV: lambda t: t.int_div,
    OpClass.LOAD: lambda t: 0,
    OpClass.STORE: lambda t: 0,
    OpClass.AMO: lambda t: t.amo_extra,
    OpClass.BRANCH: lambda t: 1,
    OpClass.JUMP: lambda t: 1,
    OpClass.CALL: lambda t: 1,
    OpClass.RET: lambda t: 1,
    OpClass.FP_ADD: lambda t: t.fp_add,
    OpClass.FP_MUL: lambda t: t.fp_mul,
    OpClass.FP_FMA: lambda t: t.fp_fma,
    OpClass.FP_DIV: lambda t: t.fp_div,
    OpClass.FP_SQRT: lambda t: t.fp_sqrt,
    OpClass.FP_CVT: lambda t: t.fp_cvt,
    OpClass.FP_MOV: lambda t: t.fp_mov,
    OpClass.CSR: lambda t: t.csr,
    OpClass.FENCE: lambda t: 1,
    OpClass.VLOAD: lambda t: 0,
    OpClass.VSTORE: lambda t: 0,
    OpClass.VALU: lambda t: t.int_alu + 1,
    OpClass.VFMA: lambda t: t.fp_fma + 1,
    OpClass.VSETVL: lambda t: 1,
}

#: Default latency table, roughly matching Rocket/BOOM FU latencies.
DEFAULT_LATENCIES = LatencyTable()
