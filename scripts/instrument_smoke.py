#!/usr/bin/env python3
"""Instrumentation smoke check (CI): bounded overhead, live streams.

Three guarantees the streaming layer makes, exercised end-to-end:

1. **Bit-identity** — an instrumented microbench run (windows + counter
   sampling + markers armed) produces exactly the same CoreResult as a
   bare run.
2. **Bounded overhead** — instrumented run time (this process's CPU
   time) stays within ``MAX_OVERHEAD`` of the bare run's.  ``PAIRS``
   bare/instrumented runs are interleaved (the order alternating pair
   by pair) and the gate is on the median of the per-pair ratios, so a
   slow spell of the host lands on both sides of a pair and a few
   disturbed pairs cannot move the verdict; both sides run the
   identical lockstep path.  On a shared 2-core host, where single
   ~0.3 s runs of the same work vary by up to a third, ten runs of
   this gate read +4.0% to +9.8%; best-of-3 wall time read -7.3% to
   +29.5% over ten runs there.
3. **Tail-ability** — the stream written during the run is complete,
   sealed, and yields a sane interval-CPI table when tailed back off
   disk, the way an operator would follow a farm job.

Exit code 0 on success; any failure is a regression.
"""

from __future__ import annotations

import dataclasses
import gc
import pathlib
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import interval_cpi, render_intervals  # noqa: E402
from repro.instrument import (  # noqa: E402
    Instrument,
    InstrumentSpec,
    TraceTrigger,
    tail_stream,
)
from repro.soc.presets import get_config  # noqa: E402
from repro.soc.system import System  # noqa: E402
from repro.workloads.microbench import get_kernel  # noqa: E402

CONFIG = "Rocket1"
KERNEL = "MM"
SCALE = 1.0
QUANTUM, CHUNK = 1024, 512
#: instrumented / bare run-time ratio ceiling (the <10% budget)
MAX_OVERHEAD = 0.10
#: interleaved bare/instrumented pairs the median is taken over
PAIRS = 31


def timed_run(trace, instrument=None) -> tuple[float, object]:
    system = System(get_config(CONFIG))
    if instrument is not None:
        system.attach_instrument(instrument)
    gc.collect()
    t0 = time.process_time()
    result = system.run_parallel([trace], quantum=QUANTUM, chunk=CHUNK)[0]
    elapsed = time.process_time() - t0
    if instrument is not None:
        instrument.seal()
    return elapsed, result


def main() -> int:
    trace = get_kernel(KERNEL).build(scale=SCALE, seed=0)
    spec = InstrumentSpec(
        triggers=(TraceTrigger(start_cycle=5_000, length=256, label="smoke"),),
        counter_interval=50_000)

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="instrument-smoke-"))
    stream_path = workdir / "smoke.jsonl"

    ratios = []
    for i in range(PAIRS):
        path = stream_path if i == 0 else workdir / f"smoke-{i}.jsonl"
        instrument = Instrument(spec, path=str(path))
        if i % 2:
            t_inst, inst_result = timed_run(trace, instrument)
            t_bare, bare_result = timed_run(trace)
        else:
            t_bare, bare_result = timed_run(trace)
            t_inst, inst_result = timed_run(trace, instrument)
        if (dataclasses.asdict(inst_result)
                != dataclasses.asdict(bare_result)):
            print("FAIL: instrumented run diverged from the bare run")
            return 1
        ratios.append(t_inst / t_bare)

    overhead = statistics.median(ratios) - 1.0
    print(f"per-pair overhead over {PAIRS} pairs: median {overhead:+.1%}, "
          f"range {min(ratios) - 1:+.1%} to {max(ratios) - 1:+.1%} "
          f"(budget {MAX_OVERHEAD:.0%})")
    if overhead > MAX_OVERHEAD:
        print(f"FAIL: instrumentation overhead {overhead:.1%} exceeds "
              f"{MAX_OVERHEAD:.0%}")
        return 1

    # tail the first run's stream back like an operator would
    records = list(tail_stream(stream_path))
    kinds = {r["t"] for r in records}
    if records[0]["t"] != "meta" or records[-1]["t"] != "seal":
        print(f"FAIL: stream not meta-framed/sealed: {sorted(kinds)}")
        return 1
    if "trace" not in kinds or "counter" not in kinds:
        print(f"FAIL: expected trace + counter records, got {sorted(kinds)}")
        return 1
    intervals = interval_cpi(records)
    if sum(iv["instructions"] for iv in intervals) != len(trace):
        print("FAIL: counter samples do not account for every instruction")
        return 1
    print(render_intervals(intervals))

    print(f"instrument smoke OK: bit-identical, {len(records)} records, "
          f"overhead {overhead:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
