"""Trace compiler: one pre-analyzed form per decoded trace.

A config sweep evaluates the *same* dynamic micro-op stream under N
timing configurations, so everything that depends only on the trace —
decoding numpy columns to plain-Python lists — is computed exactly once
here and reused by every core that runs the trace:

* :class:`CompiledTrace` bundles the plain-list columns
  ``InOrderCore.run`` and ``OoOCore.run`` index, plus the in-order
  loop's per-uop issue flags, derived on first use.  The out-of-order
  loop derives fetch line and FP-ness inline.
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

from repro.isa.opcodes import CTRL_OPS, MEM_OPS, VECTOR_OPS, OpClass
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


class CompiledTrace:
    """One trace window, decoded and pre-analyzed for every core at once.

    It holds no reference to its trace (only the ``op``/``pc`` column
    views :meth:`issue_flags` reads), so a trace and its compiled form
    are freed by reference counting alone."""

    __slots__ = ("n", "cols", "_op", "_pc", "_issue_flags", "__weakref__")

    def __init__(self, trace: Trace, window: slice = slice(None)) -> None:
        self.cols = {name: getattr(trace, name)[window].tolist()
                     for name in Trace.COLUMNS}
        self._op, self._pc = trace.op[window], trace.pc[window]
        self.n = len(self._op)
        self._issue_flags = None

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
