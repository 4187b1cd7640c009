"""Counters for the hot-path acceleration layer.

Two scopes:

* :class:`AccelStats` — per-core activity.  Each core owns one;
  ``engine_uops`` counts the micro-ops its ``run`` retired (memo hits
  retire none).
* :func:`global_stats` — process-wide memoization counters (result memo,
  shared trace cache, interpreter decode cache).  These live outside any
  :class:`~repro.soc.System` because a memo hit never builds a system at
  all.

Both surface through :class:`repro.telemetry.StatsRegistry` snapshots
under ``accel`` keys; job payloads strip them (they are provenance, not
simulation output).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AccelStats", "AccelGlobalStats", "global_stats",
           "reset_global_stats"]


@dataclass
class AccelStats:
    """Per-core counters."""

    engine_uops: int = 0       #: uops retired by the core loop

    def reset(self) -> None:
        self.__init__()


@dataclass
class AccelGlobalStats:
    """Process-wide accel counters: memo caches plus aggregate engine uops.

    ``engine_uops`` accumulates across every core in the process
    (systems are often built and discarded per run, so the per-core
    :class:`AccelStats` may be gone by the time a harness wants totals).
    """

    memo_hits: int = 0
    memo_misses: int = 0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0
    #: compiled-trace fetches served by / missed in a shared result store
    compile_store_hits: int = 0
    compile_store_misses: int = 0
    decode_hits: int = 0
    decode_misses: int = 0
    engine_uops: int = 0

    # the span solver is gone; benchmarks/perf still reads these three,
    # so they stay as constant zeros until that suite drops its rows
    spans = property(lambda self: 0)
    spans_completed = property(lambda self: 0)
    coverage = property(lambda self: 0.0)

    def reset(self) -> None:
        self.__init__()


_GLOBAL = AccelGlobalStats()


def global_stats() -> AccelGlobalStats:
    """The process-wide accel counter record (a single shared instance)."""
    return _GLOBAL


def reset_global_stats() -> None:
    _GLOBAL.reset()
