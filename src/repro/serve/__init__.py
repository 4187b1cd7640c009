"""Farm-as-a-service: a long-lived scheduler in front of the run farm.

Batch mode (``repro farm``) answers "run this sweep"; this package
answers "keep a fleet busy for many users" — the shared-manager
deployment FireSim teams actually operate.  The pieces:

* :class:`FarmServer` — asyncio daemon owning tenant queues, the
  pluggable :class:`~repro.farm.deploy.DeployManager` slot inventory,
  and one forked worker per running job (``repro serve``).
* :class:`ServeClient` — thin one-request-per-connection client backing
  ``repro submit/status/cancel/resume``.
* :class:`FairScheduler` / :class:`JobRecord` — multi-tenant queues
  with integer priorities, per-tenant quotas, and deterministic
  fairness.
* Preemption/resume rides on :mod:`repro.reliability` checkpoints and
  results ride on the shared :class:`~repro.farm.store.SharedResultStore`,
  so a served job is bit-identical to the same job run serially —
  including after a mid-run preempt.

See ``docs/serving.md`` for a worked tour.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "client": ["ServeClient"],
    "journal": ["JOURNAL_SCHEMA", "ServeJournal", "replay_journal"],
    "protocol": [
        "PROTOCOL_VERSION", "ServeError", "job_from_wire", "job_to_wire"],
    "queue": ["TERMINAL_STATES", "FairScheduler", "JobRecord"],
    "server": ["FarmServer", "ServerHandle"],
})
