"""Trace compiler: one pre-analyzed, shareable form per decoded trace.

A config sweep evaluates the *same* dynamic micro-op stream under N
timing configurations, so everything that depends only on the trace —
decoding numpy columns to plain-Python lists and classifying each op
(fetch line, FP-ness) — is computed exactly once here and reused by
every engine attached to the trace:

* :class:`CompiledTrace` bundles the per-uop arrays: the plain-list
  columns the transliterated engine loops index and the derived per-uop
  classifications (``lines``, ``is_fp``) the out-of-order engine reads.
* :func:`compiled_trace` caches one compiled form per live trace object
  (bounded, id-keyed, like :func:`repro.accel.memo.trace_arrays`).
* :func:`shared_compiled` adds cross-process sharing through a
  :class:`~repro.farm.store.SharedResultStore`: the compiled columns are
  published as a JSON payload keyed by workload identity, stamped with
  the trace's sha-256 content digest, and verified against that digest
  on the way back in — a corrupted or stale store entry silently falls
  back to rebuilding from the kernel generator.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Callable, Optional

import numpy as np

from repro.isa.opcodes import CTRL_OPS, FP_OPS, MEM_OPS, VECTOR_OPS, OpClass
from repro.isa.trace import Trace

from . import memo
from .stats import global_stats

__all__ = ["CompiledTrace", "compiled_trace", "shared_compiled",
           "compiled_store_key", "trace_payload", "trace_from_payload",
           "COMPILE_SCHEMA"]

#: payload schema for store-shared compiled traces
COMPILE_SCHEMA = 2

_FP_LUT = np.zeros(256, dtype=bool)
_FP_LUT[[int(op) for op in FP_OPS]] = True

#: ops the in-order model issues with nothing but operand waits and a slot:
#: no divider, memory port, control slot, or vector unit
_SIMPLE_LUT = np.ones(256, dtype=bool)
_SIMPLE_LUT[[int(op) for op in
             {OpClass.INT_DIV} | MEM_OPS | CTRL_OPS
             | (VECTOR_OPS - {OpClass.VSETVL})]] = False


class CompiledTrace:
    """One trace, decoded and pre-analyzed for every engine at once."""

    __slots__ = ("trace", "digest", "n", "cols", "lines", "is_fp",
                 "_issue_flags")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.digest = memo.trace_digest(trace)
        self.cols = memo.trace_arrays(trace)
        self.n = len(self.cols["op"])
        #: per-uop 64-byte fetch line (front-end line-crossing checks)
        self.lines = (trace.pc.astype(np.int64) >> 6).tolist()
        #: per-uop FP classification (issue-queue steering in the OoO model)
        self.is_fp = _FP_LUT[trace.op].tolist()
        self._issue_flags = None

    def issue_flags(self) -> tuple[list[bool], list[bool]]:
        """Per-uop ``(simple, newline)`` lists for the in-order engine.

        ``simple[i]``: the op needs no divider, memory port, control
        slot, or vector unit.  ``newline[i]``: uop *i* is on a different
        fetch line than uop *i-1* (always true at 0, where the previous
        line belongs to whatever ran before).  Derived on first use and
        cached here only — never part of a store payload.
        """
        if self._issue_flags is None:
            lines = self.trace.pc.astype(np.int64) >> 6
            newline = np.ones(self.n, dtype=bool)
            newline[1:] = lines[1:] != lines[:-1]
            self._issue_flags = (_SIMPLE_LUT[self.trace.op].tolist(),
                                 newline.tolist())
        return self._issue_flags

    def __repr__(self) -> str:
        return f"CompiledTrace(n={self.n}, digest={self.digest[:12]})"


#: id(trace) -> (trace, CompiledTrace); strong reference pins the id
_compiled: dict[int, tuple[Any, CompiledTrace]] = {}
_COMPILED_MAX = 8


def compiled_trace(trace: Trace) -> CompiledTrace:
    """The compiled form of *trace*, cached per live trace object."""
    key = id(trace)
    hit = _compiled.get(key)
    if hit is not None:
        if hit[0] is trace:
            return hit[1]
        del _compiled[key]  # id() reuse after an external purge: rebuild
    ct = CompiledTrace(trace)
    _compiled[key] = (trace, ct)
    while len(_compiled) > _COMPILED_MAX:
        del _compiled[next(iter(_compiled))]
    return ct


def clear_compiled() -> None:
    """Drop the in-process compiled-trace cache (bench cold passes)."""
    _compiled.clear()


# -- store sharing ------------------------------------------------------------


def compiled_store_key(workload: str, scale: float, seed: int) -> str:
    """Stable store key for one workload's compiled trace."""
    blob = json.dumps({"compile_schema": COMPILE_SCHEMA,
                       "kind": "compiled-trace", "workload": workload,
                       "scale": float(scale), "seed": int(seed)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trace_payload(trace: Trace) -> dict[str, Any]:
    """JSON form of a trace's columns, stamped with its content digest.

    Each column travels as base64 of its little-endian bytes plus its
    dtype string — never as a Python list of numbers."""
    columns = {}
    for name in Trace.__slots__:
        arr = getattr(trace, name)
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        columns[name] = {"dtype": arr.dtype.str,
                         "b64": base64.b64encode(arr.tobytes()).decode("ascii")}
    return {"schema": COMPILE_SCHEMA, "digest": memo.trace_digest(trace),
            "n": len(trace), "columns": columns}


def trace_from_payload(payload: dict[str, Any]) -> Optional[Trace]:
    """Rebuild a trace from a store payload; None when the payload is
    not usable (wrong schema, missing columns, digest mismatch)."""
    if not isinstance(payload, dict) or payload.get("schema") != COMPILE_SCHEMA:
        return None
    cols = payload.get("columns")
    if not isinstance(cols, dict):
        return None
    try:
        trace = Trace(*(
            np.frombuffer(base64.b64decode(cols[name]["b64"]),
                          dtype=np.dtype(cols[name]["dtype"]))
            for name in Trace.__slots__))
    except (KeyError, TypeError, ValueError):
        return None
    if memo.trace_digest(trace) != payload.get("digest"):
        return None  # stale or corrupted entry: rebuild from source
    return trace


class _TraceKey:
    """Duck-typed job stand-in for publishing traces into a result store
    (the store records ``label`` and ``describe()`` as entry metadata)."""

    def __init__(self, workload: str, scale: float, seed: int) -> None:
        self.workload = workload
        self.scale = float(scale)
        self.seed = int(seed)
        self.label = f"trace:{workload}@s{self.scale}"

    def describe(self) -> dict[str, Any]:
        return {"kind": "compiled-trace", "workload": self.workload,
                "scale": self.scale, "seed": self.seed,
                "schema": COMPILE_SCHEMA}


def shared_compiled(workload: str, scale: float, seed: int,
                    build: Callable[[], Trace],
                    store=None) -> CompiledTrace:
    """Compiled trace for one workload, shared as widely as possible.

    Resolution order: the in-process shared-trace cache, then *store*
    (a :class:`~repro.farm.store.SharedResultStore` or compatible
    ``get``/``put`` object — content-verified against the stamped
    digest), then *build*; a freshly built trace is published back to
    the store so sibling processes skip the kernel generator entirely.
    """
    g = global_stats()

    def build_or_fetch() -> Trace:
        skey = compiled_store_key(workload, scale, seed)
        if store is not None:
            trace = trace_from_payload(store.get(skey) or {})
            if trace is not None:
                g.compile_store_hits += 1
                return trace
            g.compile_store_misses += 1
        trace = build()
        if store is not None:
            try:
                store.put(skey, _TraceKey(workload, scale, seed),
                          trace_payload(trace))
            except OSError:
                pass  # a full/readonly store never fails the run
        return trace

    trace = memo.shared_trace(workload, scale, seed, build_or_fetch)
    return compiled_trace(trace)
