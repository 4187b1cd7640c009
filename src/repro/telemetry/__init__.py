"""Unified telemetry: system-wide counter snapshots and CPI-stack
attribution.

Entry points:

* :class:`StatsRegistry` — walk a :class:`repro.soc.System` and snapshot
  every component's ``*Stats`` counters into one nested record.
* :class:`Snapshot` — the record: delta (``after - before``), dotted-path
  flattening, JSON round-trip, CSV export.
* :func:`cpi_stack` / :func:`cpi_stacks` — attribute a run's cycles to
  {base, branch, l1, l2, llc, dram, tlb, store_buffer, divider,
  token_stall} buckets that sum exactly to the cycle total.

See ``docs/observability.md`` for the data model and a worked example.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cpi": ["BUCKETS", "CPIStack", "cpi_stack", "cpi_stacks"],
    "registry": ["SCHEMA_VERSION", "Snapshot", "StatsRegistry"],
})
