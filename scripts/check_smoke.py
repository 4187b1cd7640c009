#!/usr/bin/env python3
"""Differential-checking smoke (CI): fuzz every oracle, replay the corpus.

Two gates, mirroring ``docs/checking.md``:

1. a 25-seed ``repro check`` campaign across all oracle tiers
   (golden, lint, batch, checkpoint, instrument, farm, chaos) must
   finish with zero divergences — no shrinking, so an unexpected finding
   fails loudly instead of writing into the committed corpus;
2. every shrunk repro in ``tests/check/corpus/`` must replay clean,
   proving each bug the fuzzer ever found is still fixed.

Exit code 0 on success.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.check import load_corpus, replay_entries, run_check  # noqa: E402

SEEDS = 25


def main() -> int:
    entries = load_corpus()
    failures = replay_entries(entries)
    print(f"corpus: {len(entries)} entries replayed, "
          f"{len(failures)} failure(s)")
    for f in failures:
        print(f"  ! {f}")

    report = run_check(seeds=SEEDS, shrink=False,
                       progress=lambda msg: print(f"  {msg}"))
    print(report.summary())

    if failures:
        print("FAIL: a previously-fixed corpus bug is back")
        return 1
    if not report.ok:
        print("FAIL: the differential oracle found a divergence")
        return 1
    print("check smoke OK: corpus clean, zero divergences across "
          f"{SEEDS} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
