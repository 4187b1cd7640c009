"""RISC-V ISA layer: micro-op classes, traces, RV64IMFD encoding, assembler,
a trace-emitting functional interpreter, and trace serialization."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "opcodes": ["DEFAULT_LATENCIES", "ExecUnit", "LatencyTable", "OpClass"],
    "trace": [
        "FP_REG_BASE", "NUM_REGS", "ColumnBuilder", "Trace", "TraceBuilder",
        "TraceStats"],
    "encoding": ["DecodeError", "Instr", "decode", "encode"],
    "assembler": ["AssemblerError", "assemble"],
    "interp": ["ExecutionError", "Interpreter", "Memory"],
    "serialize": ["load_trace", "save_trace"],
})
