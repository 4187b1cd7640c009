#!/usr/bin/env python3
"""Layered host-performance and accuracy benchmark: the one command.

    python3 benchmarks/perf/run.py --seed N [--workload W] [--seconds S]
                                   [--trace 0|1] [--quick] [--out FILE]

Runs the named workload (default: all six, one after another), each in a
fresh child interpreter with the ``REPRO_*`` environment removed and
fresh temp dirs for every cache, store and spool.  A run of a workload
is timed passes with tracing off until ``--seconds`` are spent; the
reported value is the median pass.  ``--trace 1`` adds one pass with the
benchmark-side span recorder on, which supplies the per-layer numbers.
Every metric is printed by name with its unit, outputs are checked, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 78, "failed": 0, "metrics": {...}}

whose metrics are the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  ``--out`` writes the full record
that ``compare.py`` reads.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

RECORD_SCHEMA = 1
#: environment a user's shell may carry that would redirect the farm
SCRUBBED_ENV = ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_DEPLOY",
                "REPRO_SERVE", "REPRO_ACCEL_MEMO")
#: extra set-up-only interpreters per run, so setup_s is a median
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


# -- statistics -------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Median, quartiles and count of *samples*."""
    if len(samples) < 2:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def typical_s(passes: list[dict[str, float]]) -> float:
    """The median pass, region by region: each timed region's median
    across passes, summed.  A burst of host noise then costs one sample
    of the regions it hit, where a whole-pass median would keep it."""
    return sum(statistics.median(p[k] for p in passes) for k in passes[0])


def timed(out, which: str) -> float:
    """Seconds (``raw`` or ``ref``) inside one pass's timed regions."""
    return sum(out.seconds(which).values())


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


# -- child: one workload in one fresh interpreter ---------------------------


def child_env(environ: dict[str, str], work: pathlib.Path) -> dict[str, str]:
    """The child's environment: no ``REPRO_*`` redirection, temp files
    under the run's own work dir."""
    env = {k: v for k, v in environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = str(work)
    return env


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(args.work)
    import spans
    import workloads as W

    wl = W.REGISTRY[args.workload](args.seed, args.quick, pathlib.Path("."))
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s / (spans.loop_s() / spans.REF_LOOP_S)}
    if args.setup_only:
        pathlib.Path(args.result).write_text(json.dumps(result))
        return 0

    passes: list[W.PassOut] = []
    durations: list[float] = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.run_pass(spans.OFF)
        durations.append(time.perf_counter() - t0)
        if passes:
            out.outputs = None      # the first pass's outputs are checked
        passes.append(out)
        spent = time.perf_counter() - began
        if args.quick or (spent + statistics.median(durations)
                          > args.seconds * 1.1):
            break
    first = passes[0]
    digest = W.sim_digest(first.sim)
    attempted, failures = wl.check(first)
    for i, p in enumerate(passes[1:], 1):
        attempted += 1
        if W.sim_digest(p.sim) != digest:
            failures.append(f"pass {i}: simulated outcome differs from "
                            f"pass 0")
    raw_wall_s = typical_s([p.regions.raw for p in passes])
    wall_s = typical_s([p.regions.ref for p in passes])
    ops_per_pass = len(first.op_ms)
    end_to_end = {
        "wall_s": {**summary([sum(p.regions.ref.values()) for p in passes]),
                   "value": wall_s, "raw": raw_wall_s,
                   "slowdown": raw_wall_s / wall_s},
        "work_per_s": {
            **summary([p.work / timed(p, "ref") for p in passes]),
            "value": first.work / typical_s(
                [p.seconds("ref") for p in passes]),
            "raw": first.work / typical_s(
                [p.seconds("raw") for p in passes])},
        # percentiles within each pass, then the median pass
        "op_p50_ms": {**summary([percentile(p.op_ms, 50) for p in passes]),
                      "ops_per_pass": ops_per_pass},
        "op_p95_ms": {**summary([percentile(p.op_ms, 95) for p in passes]),
                      "ops_per_pass": ops_per_pass},
    }
    result.update({
        "why": M.WORKLOADS[wl.name], "loop": wl.loop, "params": wl.params(),
        "reps": len(passes), "end_to_end": end_to_end,
        "exact": {"sim_digest": digest,
                  "sim.cycles_total": sum(s[1] for s in first.sim),
                  "sim.uops_total": sum(s[2] for s in first.sim),
                  **wl.exact(first)},
    })

    if args.trace:
        rec = spans.Recorder()
        t0 = time.perf_counter()
        out = wl.run_pass(rec)
        t1 = time.perf_counter()
        more, bad = wl.check(out)
        attempted += more + 1
        failures += bad
        if W.sim_digest(out.sim) != digest:
            failures.append("traced pass: simulated outcome differs from "
                            "pass 0")
        layers = wl.layers(rec, out)
        roots = [(s.start, s.end) for s in rec.spans if s.parent is None]
        timed_s = timed(out, "raw")
        unattributed = max(0.0, timed_s - spans.covered(roots, t0, t1))
        ratio = timed(out, "ref") / statistics.median(
            timed(p, "ref") for p in passes)
        layers["spans.overhead_ratio"] = ratio
        layers["spans.unattributed_s"] = unattributed
        result["per_layer"] = layers
        result["trace"] = {
            "timed_s": timed_s,
            "untimed_s": (t1 - t0) - timed_s,   # checks between regions
            "unattributed_s": unattributed,
            "attributed_share": 1.0 - unattributed / timed_s,
            "overhead_ratio": ratio, "spans": len(rec.spans),
        }
        rec.write_jsonl("spans.jsonl")

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end["peak_rss_mb"] = {"value": (usage + workers) / 1024.0, "n": 1}
    result.update({"attempted": attempted, "failed": len(failures),
                   "failures": failures[:20]})
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


# -- driver -----------------------------------------------------------------


def spawn_child(args: argparse.Namespace, workload: str,
                work: pathlib.Path, setup_only: bool) -> dict:
    """Run one child to completion; its result, or SystemExit."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result),
           "--spawned-at", repr(time.monotonic())]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=child_env(dict(os.environ), work),
                            cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the child's own workers and server share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not result.exists():
        raise SystemExit(f"run.py: {workload} child "
                         + ("timed out" if code is None
                            else f"exited with {code}"))
    return json.loads(result.read_text())


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """Set-up probes plus the measuring child; one record entry."""
    work = ROOT / ".perfbench" / f"{os.getpid()}-{workload}"
    work.mkdir(parents=True)
    try:
        probes = 0 if args.quick else SETUP_PROBES
        setups = [spawn_child(args, workload, work, True)["setup_s"]
                  for _ in range(probes)]
        res = spawn_child(args, workload, work, False)
        if args.out and (work / "spans.jsonl").exists():
            shutil.copy(work / "spans.jsonl", pathlib.Path(
                f"{args.out}.{workload}.spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                    # another run's work dir is still there
    setups.append(res.pop("setup_s"))
    res["end_to_end"] = {"setup_s": summary(setups), **res["end_to_end"]}
    for m in M.END_TO_END:
        res["end_to_end"][m.name]["unit"] = m.unit
    if "per_layer" in res:
        measured = {**res["exact"], **res["per_layer"]}
        # a layer the workload never enters reads 0
        res["per_layer"] = {m.name: {"value": measured.get(m.name, 0),
                                     "unit": m.unit} for m in M.PER_LAYER}
    return res


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "seed": args.seed, "seconds": args.seconds,
            "loadavg_start": os.getloadavg()[0]}


def print_workload(name: str, res: dict, trace: int) -> None:
    print(f"== {name}: {res['reps']} passes, {res['attempted']} ops "
          f"checked, {res['failed']} failed ==")
    for msg in res["failures"]:
        print(f"   FAILED {msg}")
    for metric, e in res["end_to_end"].items():
        spread = (f"  (q1 {e['q1']:.6g}, q3 {e['q3']:.6g}, n={e['n']})"
                  if "q1" in e else f"  (n={e['n']})")
        print(f"   {metric:<14} {e['value']:.6g} {e['unit']}{spread}")
    for key, value in res["exact"].items():
        print(f"   {key:<26} {value}")
    if trace:
        tr = res["trace"]
        print(f"   traced pass: {tr['timed_s']:.4g} s timed, "
              f"{tr['attributed_share']:.1%} in named spans, "
              f"overhead x{tr['overhead_ratio']:.3f}")
        for metric, e in res["per_layer"].items():
            print(f"   {metric:<32} {e['value']:.6g} {e['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=list(M.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=M.RUN_SECONDS,
                    help="measuring time per workload (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced pass and report per-layer metrics")
    ap.add_argument("--traced", dest="trace", action="store_const", const=1,
                    help="same as --trace 1")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: small inputs, one pass, no set-up "
                         "probes; not comparable with a full run")
    ap.add_argument("--out", help="write the full JSON record here")
    for internal in ("--work", "--result"):
        ap.add_argument(internal, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    for flag in ("--child", "--setup-only"):
        ap.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro package under {ROOT / 'src'}: nothing to "
              f"measure", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    names = [args.workload] if args.workload else list(M.WORKLOADS)
    env = environment(args)
    results = {name: run_workload(args, name) for name in names}
    env["loadavg_end"] = os.getloadavg()[0]
    env["reps"] = {name: r["reps"] for name, r in results.items()}
    record = {
        "schema": RECORD_SCHEMA, "quick": args.quick,
        "traced": bool(args.trace),
        "noisy": max(env["loadavg_start"], env["loadavg_end"])
        > env["nproc"],
        "env": env, "workloads": results,
    }
    for name, res in results.items():
        print_workload(name, res, args.trace)
    if record["noisy"]:
        print(f"noisy: load average {env['loadavg_start']:.2f} -> "
              f"{env['loadavg_end']:.2f} exceeds {env['nproc']} cores")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    prefix = len(names) > 1
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {(f"{name}/{k}" if prefix else k):
                    {"value": e["value"], "unit": e["unit"]}
                    for name, r in results.items()
                    for k, e in r[section].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
