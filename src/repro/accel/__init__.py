"""Hot-path acceleration layer: transliterated engines + memoization.

``repro.accel`` makes single-process sweeps several times faster without
changing a single simulated number:

* :func:`~repro.accel.engine.run_inorder` — a bit-identical fast
  execution path for :class:`~repro.core.inorder.InOrderCore`, selected
  by the ``SoCConfig.accel`` knob (``"on"``/``"off"``): one
  transliterated scalar core loop over the components' own state
  (:func:`~repro.accel.ooo.run_ooo` is its out-of-order twin).  The
  knob chooses the core loop only; both loops drive the one memory
  walk of :meth:`~repro.mem.hierarchy.TilePort.bind`.
* :mod:`~repro.accel.compile` / :mod:`~repro.accel.batch` — compile a
  trace once, then run every config of a sweep over the compiled form.
* :mod:`~repro.accel.memo` — content-digest trace identity, shared
  workload traces across sweep points, and an in-process LRU for
  whole-run results.
* :mod:`~repro.accel.stats` — per-core engine uop counters and
  process-wide memo counters, surfaced through telemetry snapshots as
  ``accel.*`` keys.

The bit-identity contract (``accel="on"`` equals ``accel="off"`` for
cycles, stall attribution, CPI stacks, and all component stats) is
regression-tested across every named config; see docs/performance.md.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "memo": [
        "clear_caches", "config_digest", "memo_enabled", "shared_trace",
        "trace_digest"],
    "stats": [
        "AccelGlobalStats", "AccelStats", "global_stats", "reset_global_stats"],
})
