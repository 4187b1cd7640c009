"""Run-farm orchestration: parallel sweeps, result caching, fault tolerance.

FireSim's manager turns "one figure" into a batch of independent
simulations farmed across FPGA hosts; this package is the same substrate
for the reproduction.  Entry points:

* :class:`Job` — spec of one simulation (config + workload + ranks + seed).
* :class:`RunFarm` / :func:`run_jobs` — shard a job list across worker
  processes with per-job timeouts and bounded retries; merged results
  are bit-identical to a serial run regardless of worker count.
* :class:`ResultCache` — content-addressed on-disk payload cache keyed
  by the full job identity; warm re-runs simulate nothing.
* :class:`SharedResultStore` — the cache promoted to a cross-run store:
  LRU size budgets and durable hit/miss/eviction stats safe under
  concurrent server workers (``docs/serving.md``).
* :class:`DeployManager` — pluggable host-slot backends (local pool,
  FireSim-style externally provisioned fleet); results are
  bit-identical across backends.
* :class:`FarmStats` — scheduler counters (cache hits, retries,
  timeouts), exported as a :class:`repro.telemetry.Snapshot`.

Environment defaults: ``$REPRO_WORKERS`` (worker count) and
``$REPRO_CACHE_DIR`` (cache location) apply wherever the caller does not
say otherwise, which is how ``scripts/reproduce_all.sh`` parallelises a
full reproduction.  See ``docs/farm.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cache": ["CACHE_SCHEMA", "ResultCache", "cache_key"],
    "deploy": [
        "DeployManager", "ExternallyProvisionedDeployManager", "HostHealth",
        "HostSpec", "LocalDeployManager", "parse_deploy_spec", "resolve_deploy"],
    "job": ["JOB_KINDS", "Job", "JobResult", "execute_job"],
    "runfarm": [
        "FARM_SCHEMA", "FarmEvent", "FarmStats", "RunFarm", "resolve_cache",
        "resolve_workers", "run_jobs"],
    "store": ["STORE_SCHEMA", "SharedResultStore", "StoreStats"],
})
