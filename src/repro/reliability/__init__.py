"""Reliability layer: checkpoints, hang detection, and fault injection.

Long deterministic lockstep runs (the FireSim methodology this repo
reproduces) need three safety nets, and this package provides all of
them:

* :class:`SimCheckpoint` — versioned, sha-256-digested snapshots of full
  :class:`repro.soc.System` state at quantum boundaries; restored runs
  are bit-identical to uninterrupted ones, and every restore passes an
  invariant audit (token conservation, monotonic clocks, cache/TLB
  integrity).
* :class:`LockstepWatchdog` — raises a structured
  :class:`SimulationHang` (per-tile stall attribution, token-channel
  state, telemetry snapshot) when no lane advances for K quanta, instead
  of spinning forever.
* :class:`FaultPlan` — a seeded chaos DSL (worker kill/hang, token
  drop/dup, cache-line and cache-file corruption) driven through
  ``RunFarm`` and ``System`` so the nets above are exercised
  deterministically in CI (``scripts/chaos_smoke.py``).

See ``docs/reliability.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "checkpoint": [
        "CHECKPOINT_SCHEMA", "CheckpointAuditError", "CheckpointError",
        "SimCheckpoint", "audit_checkpoint", "capture_system",
        "config_fingerprint", "restore_system", "trace_fingerprint"],
    "faults": [
        "FAULT_KINDS", "Fault", "FaultInjected", "FaultPlan", "FaultPlanError",
        "apply_token_fault", "apply_worker_fault", "corrupt_cache_entry",
        "corrupt_cache_line"],
    "watchdog": ["LockstepWatchdog", "SimulationHang", "WatchdogStats"],
})
