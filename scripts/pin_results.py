#!/usr/bin/env python3
"""Pinned simulation results: one sha-256 per ``Job.kernel`` payload.

The ``batch`` oracle tier compares two ways of running the one core
loop, so a change that moves the loop's numbers passes it.  This script
pins the numbers themselves: for every configuration in ``ALL_CONFIGS``, every
runnable MicroBench kernel and seeds 0 and 1 at scale 0.02, the
sha-256 of the kernel job's payload (cycles, stalls, every telemetry
counter, the CPI stack) goes into ``tests/check/pinned_results.json``.

    python scripts/pin_results.py           # (re)write the pinned file
    python scripts/pin_results.py --check   # recompute all, compare

``--check`` exits 1 and prints each (config, kernel, seed) whose payload
no longer matches.  Regenerate only when a change is meant to move
simulated numbers.  Tier-1 checks a stride of the file
(``tests/check/test_pinned.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.farm import Job, execute_job  # noqa: E402
from repro.soc import ALL_CONFIGS  # noqa: E402
from repro.workloads.microbench import runnable_kernels  # noqa: E402

PINNED = ROOT / "tests" / "check" / "pinned_results.json"
SCALE = 0.02
SEEDS = (0, 1)


def matrix() -> list[tuple[str, str, int]]:
    """Every pinned (config, kernel, seed), in file order."""
    kernels = [k.spec.name for k in runnable_kernels()]
    return [(c, k, s) for s in SEEDS for c in ALL_CONFIGS for k in kernels]


def key(config: str, kernel: str, seed: int) -> str:
    return f"{config}/{kernel}/seed{seed}"


def payload_digest(config: str, kernel: str, seed: int) -> str:
    job = Job.kernel(ALL_CONFIGS[config], kernel, scale=SCALE, seed=seed)
    blob = json.dumps(execute_job(job), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def load() -> dict[str, str]:
    return json.loads(PINNED.read_text())["digests"]


def mismatches(points, pinned: dict[str, str]) -> list[tuple[str, str, int]]:
    """The points of *points* whose payload digest is not the pinned one."""
    return [p for p in points if payload_digest(*p) != pinned.get(key(*p))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute every pinned payload and compare")
    args = ap.parse_args(argv)
    points = matrix()
    if args.check:
        bad = mismatches(points, load())
        for config, kernel, seed in bad:
            print(f"MISMATCH: config={config} kernel={kernel} seed={seed}")
        print(f"pinned results: {len(points) - len(bad)}/{len(points)} match")
        return 1 if bad else 0
    digests = {key(*p): payload_digest(*p) for p in points}
    PINNED.write_text(json.dumps(
        {"scale": SCALE, "seeds": list(SEEDS), "digests": digests},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} payload digests to "
          f"{PINNED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
