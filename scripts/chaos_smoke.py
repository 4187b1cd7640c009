#!/usr/bin/env python3
"""Reliability smoke check (CI): a farm under a chaos plan, verified.

Runs a lockstep (checkpointable) microbench batch three ways and
asserts the reliability contracts:

1. **reference** — fault-free serial sweep;
2. **chaos** — the same batch under a deterministic fault plan (one
   worker killed mid-simulation, one cached result corrupted on disk,
   one truncated) with a checkpoint directory: the killed job must
   resume from its checkpoint, the damaged cache entries must be
   quarantined, and the merged payloads must be **byte-identical** to
   the fault-free run;
3. **manifest** — the chaos run's JSON manifest records every job as
   ``ok`` with its resume provenance, and no checkpoint files leak;
4. **stall** — on a two-host fleet (``hosts:a=1,b=1``) a ``host-stall``
   hangs the first launch on host ``a``: the per-job timeout must kill
   it, the breaker must quarantine ``a``, and the job must finish on
   ``b`` with a payload byte-identical to the serial one — the batch
   farm charging a stalled host exactly as the serve layer does.

Exit code 0 on success; any assertion failure is a regression.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.farm import (ExternallyProvisionedDeployManager, Job,  # noqa: E402
                        ResultCache, RunFarm)
from repro.reliability import FaultPlan  # noqa: E402
from repro.soc import ROCKET1, ROCKET2  # noqa: E402

KERNELS = ("EI", "MM", "Cca", "DP1f")
SCALE = 0.05
QUANTUM, CHUNK = 512, 256

PLAN = """
corrupt-cache entry=1            # evict the victim from the warm cache...
kill job=1 attempt=1 after=4     # ...so it re-runs, dies, and must resume
corrupt-cache entry=5
error job=5 attempt=1            # raises before the workload, clean retry
corrupt-cache entry=2            # garbage bytes over a cached payload
truncate-cache entry=3           # half a JSON document
"""

STALL_PLAN = "host-stall host=a count=1"   # the first launch on a hangs


def canon(results) -> str:
    return json.dumps([r.payload for r in results], sort_keys=True)


def main() -> int:
    jobs = [Job.kernel(cfg, k, scale=SCALE, quantum=QUANTUM, chunk=CHUNK)
            for cfg in (ROCKET1, ROCKET2) for k in KERNELS]

    reference_farm = RunFarm(workers=1)
    reference = reference_farm.run(jobs)
    assert all(r.ok for r in reference), "fault-free serial pass failed"

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        root = pathlib.Path(tmp)
        cache = ResultCache(root / "cache")
        RunFarm(workers=1, cache=cache).run(jobs)   # warm the cache

        plan = FaultPlan.parse(PLAN, seed=2025)
        manifest = root / "manifest.json"
        chaos = RunFarm(workers=2, cache=cache, fault_plan=plan,
                        checkpoint_dir=root / "ckpt", checkpoint_every=2,
                        manifest_path=manifest, backoff_s=0.0)
        survived = chaos.run(jobs)
        s = chaos.stats

        assert all(r.ok for r in survived), \
            [(r.label, r.error) for r in survived if not r.ok]
        assert canon(survived) == canon(reference), \
            "chaos-run payloads differ from the fault-free serial run"
        assert s.corrupt == 4, s               # every damaged entry caught
        assert survived[1].attempts == 2 and survived[1].resumed, survived[1]
        assert s.resumed >= 1, s
        assert survived[5].attempts == 2, survived[5]
        assert not list((root / "ckpt").glob("*.ckpt")), \
            "checkpoints must be consumed on success"

        quarantined = list(cache.quarantine_dir.glob("*.json"))
        assert len(quarantined) == 4, quarantined
        assert all(q.with_suffix(".reason").read_text().strip()
                   for q in quarantined)

        doc = json.loads(manifest.read_text())
        assert doc["interrupted"] is False
        assert all(j["status"] == "ok" for j in doc["jobs"]), doc["jobs"]
        assert any(j["resumed"] for j in doc["jobs"]), doc["jobs"]

    fleet = ExternallyProvisionedDeployManager(
        [("a", 1), ("b", 1)], suspect_after=1, quarantine_after=1,
        probe_interval=1000)
    stall = RunFarm(deploy=fleet, fault_plan=FaultPlan.parse(STALL_PLAN),
                    timeout_s=1.0, max_retries=0, backoff_s=0.0)
    stalled = stall.run(jobs[:2])
    assert all(r.ok for r in stalled), [r.error for r in stalled]
    assert canon(stalled) == canon(reference[:2]), \
        "stall-run payloads differ from the fault-free serial run"
    assert stalled[0].host == "b" and stalled[0].attempts == 2, stalled[0]
    assert stall.stats.timeouts == 1 and stall.stats.crashes == 0, \
        stall.stats
    assert fleet.health("a").state == "quarantined", fleet.describe()

    print(f"chaos smoke ok: {len(jobs)} jobs under "
          f"{len(plan)} faults == fault-free serial "
          f"({s.resumed} resumed, {s.corrupt} quarantined, "
          f"{s.retries} retries); host stall on a re-placed on b")
    return 0


if __name__ == "__main__":
    sys.exit(main())
