"""RISC-V ISA layer: micro-op classes, traces, RV64IMFD encoding, assembler,
a trace-emitting functional interpreter, and trace serialization."""

from .opcodes import DEFAULT_LATENCIES, ExecUnit, LatencyTable, OpClass
from .trace import (FP_REG_BASE, NUM_REGS, ColumnBuilder, Trace, TraceBuilder,
                    TraceStats)
from .encoding import DecodeError, Instr, decode, encode
from .assembler import AssemblerError, assemble
from .interp import ExecutionError, Interpreter, Memory
from .serialize import load_trace, save_trace

__all__ = [
    "OpClass",
    "ExecUnit",
    "LatencyTable",
    "DEFAULT_LATENCIES",
    "Trace",
    "TraceBuilder",
    "ColumnBuilder",
    "TraceStats",
    "NUM_REGS",
    "FP_REG_BASE",
    "Instr",
    "encode",
    "decode",
    "DecodeError",
    "assemble",
    "AssemblerError",
    "Interpreter",
    "Memory",
    "ExecutionError",
    "save_trace",
    "load_trace",
]
