#!/usr/bin/env python3
"""Farm smoke check (CI): a tiny 2-worker microbench sweep, twice.

Asserts the four contracts the run farm guarantees:

1. a parallel (2-worker) sweep is byte-identical to the serial run;
2. the second pass over a warm cache performs **zero** simulations and
   is served entirely from cache (checked via the farm's telemetry
   counters) — and, the cache being a ``SharedResultStore``, without a
   single ``os.replace`` in the parent: hit counters are updated in
   place, a read renames nothing;
3. cached payloads are byte-identical to freshly simulated ones;
4. the parallel pass forks one warm worker per slot, not one per job
   (``workers_spawned <= slots + crashes + timeouts``), and the
   fully cached pass forks none.

Exit code 0 on success; any assertion failure is a regression.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.farm import Job, RunFarm, SharedResultStore  # noqa: E402
from repro.soc import ROCKET1, ROCKET2  # noqa: E402

KERNELS = ("EI", "MM", "Cca", "DP1f")
SCALE = 0.05


def canon(results) -> str:
    return json.dumps([r.payload for r in results], sort_keys=True)


def main() -> int:
    jobs = [Job.kernel(cfg, k, scale=SCALE)
            for cfg in (ROCKET1, ROCKET2) for k in KERNELS]

    serial_farm = RunFarm(workers=1)
    serial = serial_farm.run(jobs)
    assert all(r.ok for r in serial), "serial pass failed"

    with tempfile.TemporaryDirectory(prefix="repro-farm-smoke-") as tmp:
        cache = SharedResultStore(tmp)

        cold_farm = RunFarm(workers=2, cache=cache)
        cold = cold_farm.run(jobs)
        s = cold_farm.stats
        assert all(r.ok for r in cold), "cold parallel pass failed"
        assert s.simulated == len(jobs) and s.cache_hits == 0, s
        assert canon(cold) == canon(serial), \
            "parallel results differ from serial"
        assert 0 < s.workers_spawned <= 2 + s.crashes + s.timeouts, s

        warm_farm = RunFarm(workers=2, cache=cache)
        renames, os_replace = [], os.replace

        def counting_replace(src, dst):
            renames.append(dst)
            return os_replace(src, dst)

        os.replace = counting_replace
        try:
            warm = warm_farm.run(jobs)
        finally:
            os.replace = os_replace
        assert not renames, f"cache-served pass renamed files: {renames}"
        s = warm_farm.stats
        flat = s.to_snapshot().flat()
        assert flat["farm.cache_hits"] == len(jobs), flat
        assert flat["farm.simulated"] == 0, flat
        assert all(r.from_cache for r in warm), "warm pass missed the cache"
        assert s.workers_spawned == 0, s
        assert canon(warm) == canon(serial), \
            "cached results differ from simulated"
        counted = cache.stats_snapshot().data["store"]
        assert (counted["hits"], counted["misses"], counted["inserts"]) == (
            len(jobs), len(jobs), len(jobs)), counted

    print(f"farm smoke ok: {len(jobs)} jobs, parallel == serial on "
          f"{cold_farm.stats.workers_spawned} warm workers, "
          f"warm pass 100% cached ({flat['farm.cache_hits']} hits, "
          f"0 simulations, 0 forks, 0 renames)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
