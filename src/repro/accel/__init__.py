"""Hot-path support for the core loops: compiled traces + memoization.

``repro.accel`` keeps single-process sweeps fast without changing a
single simulated number:

* :mod:`~repro.accel.compile` — a trace compiled once into the
  plain-list columns and per-uop issue flags that ``InOrderCore.run``
  and ``OoOCore.run`` read; :mod:`~repro.accel.batch` runs a sweep's
  configs one ``Job.kernel`` point after another over one shared trace.
* :mod:`~repro.accel.memo` — content-digest trace identity, shared
  workload traces across sweep points, per-table latency lists, and an
  in-process LRU for whole-run results.
* :mod:`~repro.accel.stats` — per-core uop counters and process-wide
  memo counters, surfaced through telemetry snapshots as ``accel.*``
  keys.

See docs/performance.md, "How the core loop runs".
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "memo": [
        "clear_caches", "config_digest", "shared_trace", "trace_digest"],
    "stats": [
        "AccelGlobalStats", "AccelStats", "global_stats", "reset_global_stats"],
})
