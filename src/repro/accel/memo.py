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
  ``(trace_digest, config_digest, extra)`` for whole-run results
  (cold-start, fresh-system runs only: those are the only runs whose
  outcome is a pure function of that key).  The key needs no system, so
  a hit builds none.
* :func:`window_get` / :func:`window_put` — a bounded LRU of resolved
  branch front-end windows, keyed on a predictor lineage plus a trace
  digest (see :meth:`~repro.core.branch.BranchUnit.resolve_window`), so
  a sweep resolves each predictor config's front end once.

The result memo deep-copies payloads on the way in and out, and a
stored window is immutable, so no hit can alias live state;
:func:`clear_caches` empties every cache (to time a cold start).
"""

from __future__ import annotations

import copy
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
    "window_digest",
    "window_get",
    "window_put",
    "clear_caches",
    "config_digest",
    "latency_lut",
]

#: bound on cached whole-run results
_MEMO_MAX = 256
#: bound on shared workload traces
_TRACE_MAX = 64
#: bound on resolved front-end windows: a warm and a measured pass for
#: each of four predictor configs, the most a sweep over ALL_CONFIGS uses
_WINDOW_MAX = 8


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


def memo_key(trace, cfg, uncore=None, extra: tuple = ()) -> tuple:
    """LRU key: (trace digest, config digest, *extra*).

    *uncore* is accepted and ignored: the key once held the uncore's
    class name, but every config builds the same ``Uncore``, so it told
    nothing the config digest does not, and reading it meant building a
    ``System`` before every lookup.  Callers that still pass one
    (``benchmarks/perf/workloads.py``) get the key the library uses.
    """
    return (trace_digest(trace), config_digest(cfg), extra)


def memo_get(key: tuple):
    """Deep copy of the memoized payload for *key*, or None."""
    g = global_stats()
    hit = _memo.get(key)
    if hit is None:
        g.memo_misses += 1
        return None
    _memo.move_to_end(key)
    g.memo_hits += 1
    return copy.deepcopy(hit)


def memo_put(key: tuple, payload) -> None:
    _memo[key] = copy.deepcopy(payload)
    if len(_memo) > _MEMO_MAX:
        _memo.popitem(last=False)


# -- resolved front-end windows -----------------------------------------------

_windows: OrderedDict[tuple, Any] = OrderedDict()


def window_digest(trace, ct):
    """*trace*'s content digest when *ct* is its whole-trace compiled form
    and the digest is already computed, else None: the part of a window
    key that names the trace, made without computing a digest a run would
    not compute anyway."""
    return trace._digest if ct is trace._compiled else None


def window_get(key: tuple):
    """The resolved branch front-end window stored under *key* (a
    :class:`~repro.core.branch.BranchUnit` lineage plus a trace digest),
    or None.  Windows are immutable, so a hit is returned as is."""
    hit = _windows.get(key)
    if hit is not None:
        _windows.move_to_end(key)
    return hit


def window_put(key: tuple, window) -> None:
    _windows[key] = window
    if len(_windows) > _WINDOW_MAX:
        _windows.popitem(last=False)


def clear_caches() -> None:
    """Drop every in-process cache: shared traces, whole-run results,
    latency tables and resolved front-end windows (benchmarks call this
    between timed passes so a measurement never feeds on an earlier
    pass's work)."""
    _traces.clear()
    _memo.clear()
    _lat_luts.clear()
    _windows.clear()
