"""Trace and result memoization for the acceleration layer.

Sweeps rerun the same decoded workloads over and over: every config point
of ``sweep_configs`` rebuilds the same kernel trace, and warmup/measure
harnesses run each trace twice on a fresh system.  This module removes the
redundancy without touching semantics:

* :func:`trace_digest` — content identity of a :class:`~repro.isa.trace.Trace`
  (sha-256 over its columns, the same identity checkpoints stamp),
  computed once and kept on the trace.
* :func:`shared_trace` — process-wide ``(kernel, scale, seed) -> Trace``
  cache so sweeps share one decoded trace across configurations.
* :func:`memo_get` / :func:`memo_put` — a bounded in-process LRU keyed on
  ``(trace_digest, core_config_digest, uncore_state_class)`` for whole-run
  results (cold-start, fresh-system runs only: those are the only runs
  whose outcome is a pure function of that key).

All caches hold deep-copied payloads on the way out, so a memo hit can
never alias live state, and ``REPRO_ACCEL_MEMO=0`` disables the result
memo.
"""

from __future__ import annotations

import copy
import os
from collections import OrderedDict
from typing import Any, Callable

from ..isa.trace import trace_digest
from ..soc.config import config_digest
from .stats import global_stats

__all__ = [
    "trace_digest",
    "shared_trace",
    "memo_key",
    "memo_get",
    "memo_put",
    "memo_enabled",
    "clear_caches",
    "config_digest",
    "latency_lut",
]

#: bound on cached whole-run results
_MEMO_MAX = 256
#: bound on shared workload traces
_TRACE_MAX = 64


def memo_enabled() -> bool:
    """Whether the in-process result memo is active (env kill-switch)."""
    return os.environ.get("REPRO_ACCEL_MEMO", "1") != "0"


# -- latency lookup tables ----------------------------------------------------

_lat_luts: dict = {}


def latency_lut(lat_table):
    """List of per-OpClass latencies, cached per table.

    ``LatencyTable`` is a frozen (hashable) dataclass, so the table
    itself keys the cache.
    """
    hit = _lat_luts.get(lat_table)
    if hit is None:
        from repro.isa.opcodes import OpClass
        hit = [lat_table.latency_of(op) for op in OpClass]
        _lat_luts[lat_table] = hit
    return hit


# -- shared workload traces ---------------------------------------------------

_traces: OrderedDict[tuple, Any] = OrderedDict()


def shared_trace(name: str, scale: float, seed: int,
                 build: Callable[[], Any]):
    """Process-wide decoded-trace cache keyed ``(kernel, scale, seed)``.

    ``sweep_configs``/``sweep_knob`` hit this once per workload instead of
    rebuilding the same trace at every configuration point.  Traces are
    immutable, so sharing one object across systems is safe.
    """
    g = global_stats()
    key = (name, float(scale), int(seed))
    trace = _traces.get(key)
    if trace is not None:
        _traces.move_to_end(key)
        g.trace_cache_hits += 1
        return trace
    g.trace_cache_misses += 1
    trace = build()
    _traces[key] = trace
    if len(_traces) > _TRACE_MAX:
        _traces.popitem(last=False)
    return trace


# -- whole-run result memo ----------------------------------------------------

_memo: OrderedDict[tuple, Any] = OrderedDict()


def memo_key(trace, cfg, uncore, extra: tuple = ()) -> tuple:
    """LRU key: (trace digest, core-config digest, uncore state class)."""
    return (trace_digest(trace), config_digest(cfg),
            type(uncore).__name__ if uncore is not None else None, extra)


def memo_get(key: tuple):
    """Deep copy of the memoized payload for *key*, or None."""
    g = global_stats()
    if not memo_enabled():
        return None
    hit = _memo.get(key)
    if hit is None:
        g.memo_misses += 1
        return None
    _memo.move_to_end(key)
    g.memo_hits += 1
    return copy.deepcopy(hit)


def memo_put(key: tuple, payload) -> None:
    if not memo_enabled():
        return
    _memo[key] = copy.deepcopy(payload)
    if len(_memo) > _MEMO_MAX:
        _memo.popitem(last=False)


def clear_caches() -> None:
    """Drop every in-process cache (benchmarks call this between timed
    passes so a measurement never feeds on an earlier pass's work)."""
    _traces.clear()
    _memo.clear()
    _lat_luts.clear()
