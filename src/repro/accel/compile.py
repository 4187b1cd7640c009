"""Trace compiler: one pre-analyzed form per decoded trace.

A config sweep evaluates the *same* dynamic micro-op stream under N
timing configurations, so everything that depends only on the trace —
decoding numpy columns to plain-Python lists — is computed exactly once
here and reused by every core that runs the trace:

* :class:`CompiledTrace` bundles the plain-list columns
  ``InOrderCore.run`` and ``OoOCore.run`` index, plus what is derived
  on first use: the per-uop issue flags (``newline`` serves both
  loops), the out-of-order loop's per-uop class, and the position of
  the first vector op a core without a vector unit refuses.
* :func:`compiled_trace` keeps a whole trace's form on the trace, and
  compiles any narrower window (a chunk) afresh from column views.
* :func:`trace_payload` / :func:`trace_from_payload` are a trace's JSON
  form (its :func:`~repro.isa.serialize.encode_trace` bytes in base64);
  decoding re-verifies the content digest, so a damaged or stale
  payload reads as None.
"""

from __future__ import annotations

import base64
from typing import Any, Optional

import numpy as np

from repro.isa.opcodes import CTRL_OPS, FP_OPS, MEM_OPS, VECTOR_OPS, OpClass
from repro.isa.serialize import decode_trace, encode_trace
from repro.isa.trace import Trace

__all__ = ["CompiledTrace", "compiled_trace", "trace_payload",
           "trace_from_payload", "COMPILE_SCHEMA"]

#: schema of :func:`trace_payload`
COMPILE_SCHEMA = 3

#: ops the in-order model issues with nothing but operand waits and a slot:
#: no divider, memory port, control slot, or vector unit
_SIMPLE_LUT = np.ones(256, dtype=bool)
_SIMPLE_LUT[[int(op) for op in
             {OpClass.INT_DIV} | MEM_OPS | CTRL_OPS
             | (VECTOR_OPS - {OpClass.VSETVL})]] = False

#: vector ops a core without a vector unit refuses (``vsetvl`` only
#: configures, so every core takes it)
_REFUSED = [int(op) for op in VECTOR_OPS - {OpClass.VSETVL}]

#: the out-of-order loop's per-uop class (:meth:`CompiledTrace.classes`):
#: integer, FP, divide, control, load, store, AMO, refused vector
_CLASS_LUT = np.zeros(256, dtype=np.uint8)
for _cls, _ops in enumerate(((), FP_OPS, {OpClass.INT_DIV}, CTRL_OPS,
                             {OpClass.LOAD}, {OpClass.STORE},
                             {OpClass.AMO}, _REFUSED)):
    _CLASS_LUT[[int(op) for op in _ops]] = _cls
del _cls, _ops


class CompiledTrace:
    """One trace window, decoded and pre-analyzed for every core at once.

    It holds no reference to its trace (only the ``op``/``pc`` column
    views :meth:`issue_flags` reads), so a trace and its compiled form
    are freed by reference counting alone."""

    __slots__ = ("n", "cols", "_op", "_pc", "_issue_flags", "_classes",
                 "_refused", "__weakref__")

    def __init__(self, trace: Trace, window: slice = slice(None)) -> None:
        self.cols = {name: getattr(trace, name)[window].tolist()
                     for name in Trace.COLUMNS}
        self._op, self._pc = trace.op[window], trace.pc[window]
        self.n = len(self._op)
        self._issue_flags = self._classes = self._refused = None

    def issue_flags(self) -> tuple[list[bool], list[bool]]:
        """Per-uop ``(simple, newline)`` lists for the in-order loop.

        ``simple[i]``: the op needs no divider, memory port, control
        slot, or vector unit.  ``newline[i]``: uop *i* is on a different
        fetch line than uop *i-1* (always true at 0, where the previous
        line belongs to whatever ran before).  Derived on first use and
        cached here only — never part of a trace payload.
        """
        if self._issue_flags is None:
            lines = self._pc.astype(np.int64) >> 6
            newline = np.ones(self.n, dtype=bool)
            newline[1:] = lines[1:] != lines[:-1]
            self._issue_flags = (_SIMPLE_LUT[self._op].tolist(),
                                 newline.tolist())
        return self._issue_flags

    def classes(self) -> bytes:
        """Per-uop class for the out-of-order loop, one byte each: 0
        integer, 1 FP, 2 divide, 3 control, 4 load, 5 store, 6 AMO, 7 a
        vector op (which that core refuses).  Derived on first use and
        cached here only."""
        if self._classes is None:
            self._classes = _CLASS_LUT[self._op].tobytes()
        return self._classes

    def refused(self) -> int:
        """The position of the window's first vector op, which a core
        without a vector unit refuses (``n`` when there is none).
        Derived on first use and cached here only."""
        if self._refused is None:
            at = np.flatnonzero(np.isin(self._op, _REFUSED))
            self._refused = int(at[0]) if len(at) else self.n
        return self._refused

    def control(self) -> list[int]:
        """The window positions of its control ops, ascending: what
        :meth:`~repro.core.branch.BranchUnit.resolve_window` walks.
        Made afresh per call: only a live walk needs them, and a sweep
        that reuses resolved windows would keep them for nothing."""
        op = self._op
        return ((op >= int(OpClass.BRANCH)) & (op <= int(OpClass.RET))
                ).nonzero()[0].tolist()

    def __repr__(self) -> str:
        return f"CompiledTrace(n={self.n})"


def compiled_trace(trace: Trace, start: int = 0,
                   stop: Optional[int] = None) -> CompiledTrace:
    """The compiled form of ``trace[start:stop]``; only the whole
    trace's is kept (on the trace), so a chunk's lists die with it."""
    window = slice(start, stop)
    if window.indices(len(trace))[:2] != (0, len(trace)):
        return CompiledTrace(trace, window)
    if trace._compiled is None:
        trace._compiled = CompiledTrace(trace)
    return trace._compiled


# -- trace payloads -----------------------------------------------------------


def trace_payload(trace: Trace) -> dict[str, Any]:
    """JSON form of a trace: base64 of its :func:`encode_trace` bytes."""
    return {"schema": COMPILE_SCHEMA,
            "b64": base64.b64encode(encode_trace(trace)).decode("ascii")}


def trace_from_payload(payload: dict[str, Any]) -> Optional[Trace]:
    """Rebuild a trace from its payload; None when the payload is
    not usable (wrong schema, malformed base64, bad encoding or digest)."""
    if not isinstance(payload, dict) or payload.get("schema") != COMPILE_SCHEMA:
        return None
    try:
        buf = base64.b64decode(payload["b64"], validate=True)
    except (KeyError, TypeError, ValueError):
        return None
    return decode_trace(buf)
