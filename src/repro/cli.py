"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list configs|kernels|experiments``
    Inventories of the named SoC models, MicroBench kernels, and
    table/figure experiments.
``kernel NAME --config CFG [--scale S]``
    Run one microbenchmark on one configuration.
``compare NAME [--scale S]``
    Run one kernel on a hardware model and its FireSim counterpart and
    print the relative speedup.
``npb BENCH --config CFG [--ranks N] [--cls C]``
    Run an NPB benchmark (verified against the serial reference).
``perf NAME --config CFG [--scale S] [--cold] [--json]``
    perf-stat style counters for one kernel on one configuration.
``stats --config CFG --kernel NAME [--scale S] [--json|--csv] [--cold]``
    Full telemetry snapshot + per-tile CPI stack for one kernel run
    (see ``docs/observability.md``); with ``--store DIR`` print a shared
    result store's hit/miss/eviction counters and usage instead.
``experiment ID [--out FILE]``
    Regenerate a paper table/figure (fig1..fig7, table1/2/4/5, hostrate).
``farm [--configs A,B] [--kernels X,Y] [--workers N] [--cache-dir DIR]``
    Farm an ad-hoc kernel sweep across worker processes with result
    caching and live per-job progress (see ``docs/farm.md``).  With
    ``--quantum``/``--checkpoint-dir`` jobs run checkpointable; with
    ``--fault-plan`` deterministic chaos is injected (``docs/reliability.md``);
    with ``--instrument-dir`` (and optionally ``--counters-interval``)
    each job writes a live-tailable instrumentation stream.
``trace KERNEL [--start-pc PC|--start-cycle N] [--length N] [--out FILE]``
    Capture a trigger-armed instruction-trace window of one kernel run
    (TracerV analogue, see ``docs/instrumentation.md``).
``counters KERNEL --interval N [--flamegraph] [--out FILE]``
    Sample counter deltas every N target cycles (AutoCounter analogue)
    and print the interval CPI table, or fold region markers into
    flamegraph input.
``tail FILE [--follow]``
    Print an instrumentation stream, optionally following a live writer
    (e.g. a farm job's stream) until its seal record.
``checkpoint --config CFG --kernel NAME [--at N] --out FILE``
    Run a kernel through the token-lockstep path, save a mid-run (or
    final) checkpoint; ``--info FILE`` inspects one instead.
``replay FILE [--verify]``
    Resume a saved checkpoint to completion; ``--verify`` re-runs
    uninterrupted from scratch and asserts bit-identical results.
``serve [--spool DIR] [--deploy SPEC] [--quota N] [--tenant-quota T=N]``
    Run the long-lived farm service: multi-tenant named queues with
    integer priorities, per-tenant quotas and fair scheduling in front
    of a pluggable deploy backend (``local:N`` pool or an
    externally-provisioned ``hosts:a=2,b=4`` fleet), with a shared
    cross-run result store (see ``docs/serving.md``).  Every lifecycle
    transition is journaled; ``--recover`` replays the journal after a
    crash (restore finished jobs, re-enqueue the rest).  Host-health
    thresholds (``--suspect-after``/``--quarantine-after``/
    ``--probe-interval``) tune the circuit breaker that quarantines
    flaky hosts and migrates their jobs; ``--fault-plan`` injects a
    seeded chaos schedule (``docs/reliability.md``).
``submit KERNEL --endpoint SOCK [--tenant T] [--priority P] [--wait|--tail]``
    Queue one kernel job on a running server; ``--wait`` blocks for the
    result, ``--tail`` follows the job's live progress stream.
``status [ID] --endpoint SOCK [--json] [--hosts]``
    One job's state, or (without ID) the whole-server view: tenant
    queues, deploy slots, and store hit/miss/eviction counters;
    ``--hosts`` adds per-host health (breaker state, failure and
    quarantine counters).
``cancel ID --endpoint SOCK [--preempt]``
    Cancel a queued/running job; ``--preempt`` checkpoint-stops a
    running job so ``resume`` can continue it later.
``resume ID --endpoint SOCK``
    Re-queue a preempted job; it resumes from its last checkpoint and
    finishes bit-identical to an uninterrupted run.
``check [--seeds N] [--tiers T,U] [--no-shrink]``
    Property-based differential checking: fuzz generated RISC-V programs
    through the interpreter-vs-golden, batched-vs-serial config sweeps,
    checkpoint/restore, instrumented-vs-bare, farm-vs-serial, and chaos
    (serve layer under seeded faults, crash + recovery) oracles plus the
    telemetry invariant lint; shrink any divergence into
    ``tests/check/corpus/`` (see ``docs/checking.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import (
    EXPERIMENTS,
    relative_speedup,
    render_series,
    render_table,
)
from .analysis.speedup import SeriesResult
from .soc import ALL_CONFIGS, BANANA_PI_HW, BANANA_PI_SIM, MILKV_HW, MILKV_SIM, get_config
from .workloads.microbench import get_kernel, run_kernel, runnable_kernels
from .workloads.npb import NPB_RUNNERS

__all__ = ["main", "build_parser"]

#: hardware model -> its tuned FireSim counterpart (for `compare`)
_PAIRS = {
    "BananaPi-K1": (BANANA_PI_HW, BANANA_PI_SIM),
    "MILKV-SG2042": (MILKV_HW, MILKV_SIM),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Bridging Simulation and Silicon - reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="inventories")
    lst.add_argument("what", choices=["configs", "kernels", "experiments"])

    k = sub.add_parser("kernel", help="run one microbenchmark")
    k.add_argument("name")
    k.add_argument("--config", default="Rocket1")
    k.add_argument("--scale", type=float, default=1.0)

    c = sub.add_parser("compare", help="kernel on hardware vs FireSim pair")
    c.add_argument("name")
    c.add_argument("--pair", choices=sorted(_PAIRS), default="BananaPi-K1")
    c.add_argument("--scale", type=float, default=1.0)

    n = sub.add_parser("npb", help="run an NPB benchmark")
    n.add_argument("bench", choices=sorted(NPB_RUNNERS))
    n.add_argument("--config", default="Rocket1")
    n.add_argument("--ranks", type=int, default=1)
    n.add_argument("--cls", default="A", choices=["S", "W", "A"])

    pf = sub.add_parser("perf", help="perf-stat counters for a kernel")
    pf.add_argument("name")
    pf.add_argument("--config", default="Rocket1")
    pf.add_argument("--scale", type=float, default=1.0)
    pf.add_argument("--cold", action="store_true", help="skip the warmup pass")
    pf.add_argument("--json", action="store_true",
                    help="emit the counters as JSON instead of text")

    st = sub.add_parser("stats", help="telemetry snapshot + CPI stack")
    st.add_argument("--config", default="Rocket1")
    st.add_argument("--kernel", default="MM")
    st.add_argument("--scale", type=float, default=1.0)
    st.add_argument("--cold", action="store_true", help="skip the warmup pass")
    fmt = st.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON snapshot")
    fmt.add_argument("--csv", action="store_true", help="flat counter CSV")
    st.add_argument("--out", default=None, help="also write the output here")
    st.add_argument("--store", default=None, metavar="DIR",
                    help="print the shared result store's hit/miss/eviction "
                         "counters and usage instead of running a kernel")

    e = sub.add_parser("experiment", help="regenerate a paper artifact")
    e.add_argument("id", choices=sorted(EXPERIMENTS))
    e.add_argument("--out", default=None, help="also write the text here")

    fm = sub.add_parser("farm", help="farm a kernel sweep across workers")
    fm.add_argument("--configs", default="Rocket1",
                    help="comma-separated SoC config names")
    fm.add_argument("--kernels", default=None,
                    help="comma-separated kernel names "
                         "(default: the full runnable suite)")
    fm.add_argument("--scale", type=float, default=1.0)
    fm.add_argument("--seed", type=int, default=0)
    fm.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: $REPRO_WORKERS or 1)")
    fm.add_argument("--cache-dir", default=None,
                    help="result cache directory (default: $REPRO_CACHE_DIR)")
    fm.add_argument("--no-cache", action="store_true",
                    help="bypass the result cache entirely")
    fm.add_argument("--timeout", type=float, default=None,
                    help="per-job timeout in seconds (parallel mode)")
    fm.add_argument("--retries", type=int, default=2,
                    help="extra attempts for a failed/hung job")
    fm.add_argument("--json", action="store_true",
                    help="emit results + farm stats as JSON")
    fm.add_argument("--quiet", action="store_true",
                    help="suppress the live per-job progress lines")
    fm.add_argument("--quantum", type=int, default=None,
                    help="run kernels through the token-lockstep path in "
                         "quanta of this many cycles (checkpointable jobs)")
    fm.add_argument("--checkpoint-dir", default=None,
                    help="save mid-run job checkpoints here; retries of "
                         "crashed jobs resume from them")
    fm.add_argument("--checkpoint-every", type=int, default=8,
                    help="quanta between checkpoint saves")
    fm.add_argument("--manifest", default=None,
                    help="write a JSON run manifest here (also on Ctrl-C)")
    fm.add_argument("--fault-plan", default=None,
                    help="fault-injection DSL, inline or @file "
                         "(see docs/reliability.md)")
    fm.add_argument("--fault-seed", type=int, default=0,
                    help="seed for the fault plan's deterministic damage")
    fm.add_argument("--instrument-dir", default=None,
                    help="write a per-job instrumentation stream "
                         "(<label>.jsonl) here, tail-able while the job "
                         "runs; bypasses the result cache")
    fm.add_argument("--counters-interval", type=int, default=None,
                    help="sample counter deltas every N target cycles "
                         "into each job's stream (implies instrumentation)")
    fm.add_argument("--deploy", default=None, metavar="SPEC",
                    help="run-farm backend: 'local:N' pool or "
                         "'hosts:a=2,b=4' externally-provisioned fleet "
                         "(default: $REPRO_DEPLOY, else local pool)")

    tr = sub.add_parser("trace",
                        help="trigger-armed instruction trace window")
    tr.add_argument("kernel")
    tr.add_argument("--config", default="Rocket1")
    tr.add_argument("--scale", type=float, default=1.0)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--start-pc", type=lambda s: int(s, 0), default=None,
                    help="open the window at the first match of this PC")
    tr.add_argument("--start-cycle", type=int, default=None,
                    help="open the window at this target cycle")
    tr.add_argument("--stop-pc", type=lambda s: int(s, 0), default=None,
                    help="close the window at the first match of this PC")
    tr.add_argument("--stop-cycle", type=int, default=None,
                    help="close the window at this target cycle")
    tr.add_argument("--length", type=int, default=100,
                    help="instructions to capture (0: tripwire only)")
    tr.add_argument("--max-records", type=int, default=65536,
                    help="hard cap on captured records")
    tr.add_argument("--interval", type=int, default=None,
                    help="also sample counters every N target cycles")
    tr.add_argument("--chunk", type=int, default=256,
                    help="instructions per observed chunk (the cycle-"
                         "stamp resolution dial)")
    tr.add_argument("--out", default=None, metavar="FILE",
                    help="write the JSONL stream here")
    tr.add_argument("--json", action="store_true",
                    help="print raw JSONL records instead of the table")

    co = sub.add_parser("counters",
                        help="periodic counter sampling (interval CPI)")
    co.add_argument("kernel")
    co.add_argument("--config", default="Rocket1")
    co.add_argument("--scale", type=float, default=1.0)
    co.add_argument("--seed", type=int, default=0)
    co.add_argument("--interval", type=int, default=10_000,
                    help="target cycles between counter samples")
    co.add_argument("--flamegraph", action="store_true",
                    help="fold region markers into flamegraph.pl input "
                         "instead of the interval CPI table")
    co.add_argument("--chunk", type=int, default=256,
                    help="instructions per observed chunk (the sample-"
                         "alignment resolution dial)")
    co.add_argument("--out", default=None, metavar="FILE",
                    help="write the JSONL stream here")
    co.add_argument("--json", action="store_true",
                    help="print the interval list as JSON")

    tl = sub.add_parser("tail", help="follow an instrumentation stream")
    tl.add_argument("file")
    tl.add_argument("-f", "--follow", action="store_true",
                    help="keep polling for new records until the seal")
    tl.add_argument("--timeout", type=float, default=30.0,
                    help="give up after this many idle seconds (--follow)")
    tl.add_argument("--kinds", default=None,
                    help="comma-separated record kinds to show "
                         "(default: all)")

    ck = sub.add_parser("checkpoint",
                        help="save (or inspect) a lockstep run checkpoint")
    ck.add_argument("--config", default="Rocket1")
    ck.add_argument("--kernel", default="MM")
    ck.add_argument("--scale", type=float, default=1.0)
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--quantum", type=int, default=4096)
    ck.add_argument("--chunk", type=int, default=None,
                    help="trace chunk per lane step (default: quantum/2)")
    ck.add_argument("--at", type=int, default=8,
                    help="save after this many quanta (0: run to the end)")
    ck.add_argument("--cold", action="store_true", help="skip the warmup pass")
    ck.add_argument("--out", default="repro.ckpt")
    ck.add_argument("--info", default=None, metavar="FILE",
                    help="verify + describe an existing checkpoint and exit")

    rp = sub.add_parser("replay", help="resume a checkpoint to completion")
    rp.add_argument("file")
    rp.add_argument("--verify", action="store_true",
                    help="also run uninterrupted from scratch and assert "
                         "the results are bit-identical")

    sv = sub.add_parser("serve", help="run the farm-as-a-service daemon")
    sv.add_argument("--spool", default="serve-spool",
                    help="server working directory (socket, streams, "
                         "checkpoints, results, shared store)")
    sv.add_argument("--deploy", default=None, metavar="SPEC",
                    help="run-farm backend: 'local:N' or 'hosts:a=2,b=4' "
                         "(default: $REPRO_DEPLOY, else local pool)")
    sv.add_argument("--socket", default=None,
                    help="listen on this Unix socket path "
                         "(default: <spool>/serve.sock)")
    sv.add_argument("--quota", type=int, default=None,
                    help="default per-tenant concurrent-job quota "
                         "(default: unlimited)")
    sv.add_argument("--tenant-quota", action="append", default=[],
                    metavar="TENANT=N",
                    help="explicit quota for one tenant (repeatable)")
    sv.add_argument("--retries", type=int, default=2,
                    help="automatic re-queues for a failed/crashed job")
    sv.add_argument("--timeout", type=float, default=None,
                    help="default per-job timeout in seconds")
    sv.add_argument("--checkpoint-every", type=int, default=2,
                    help="quanta between preemption checkpoints")
    sv.add_argument("--no-store", action="store_true",
                    help="serve without the shared cross-run result store")
    sv.add_argument("--store-dir", default=None,
                    help="shared store location (default: <spool>/store)")
    sv.add_argument("--store-max-entries", type=int, default=None,
                    help="LRU-evict the store beyond this many entries")
    sv.add_argument("--store-max-bytes", type=int, default=None,
                    help="LRU-evict the store beyond this many bytes")
    sv.add_argument("--recover", action="store_true",
                    help="replay <spool>/journal.jsonl before serving: "
                         "restore terminal jobs, re-enqueue the rest "
                         "(resuming from checkpoints where they exist)")
    sv.add_argument("--fault-plan", default=None, metavar="DSL",
                    help="chaos fault schedule (repro.reliability DSL), "
                         "e.g. 'kill job=0; host-stall host=a count=1'")
    sv.add_argument("--fault-seed", type=int, default=0,
                    help="seed for the fault plan's randomised damage")
    sv.add_argument("--suspect-after", type=int, default=None,
                    help="consecutive host-correlated failures before a "
                         "host turns suspect (placed only as last resort)")
    sv.add_argument("--quarantine-after", type=int, default=None,
                    help="consecutive host-correlated failures before a "
                         "host is quarantined and its jobs migrated")
    sv.add_argument("--probe-interval", type=int, default=None,
                    help="acquire ticks before a quarantined host gets a "
                         "half-open probe job")

    sb = sub.add_parser("submit", help="queue a job on a running server")
    sb.add_argument("kernel", help="MicroBench kernel name")
    sb.add_argument("--endpoint", default=None,
                    help="server socket (default: $REPRO_SERVE)")
    sb.add_argument("--config", default="Rocket1")
    sb.add_argument("--scale", type=float, default=1.0)
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--quantum", type=int, default=None,
                    help="lockstep quantum (makes the job preemptible)")
    sb.add_argument("--timeout", type=float, default=None,
                    help="per-job timeout in seconds")
    sb.add_argument("--tenant", default="default")
    sb.add_argument("--priority", type=int, default=0,
                    help="higher dispatches first within the tenant")
    sb.add_argument("--counters-interval", type=int, default=None,
                    help="attach instrumentation sampling counters every "
                         "N target cycles (stream lands in the spool)")
    sb.add_argument("--wait", action="store_true",
                    help="block until the job reaches a terminal state")
    sb.add_argument("--tail", action="store_true",
                    help="follow the job's progress stream until its seal")
    sb.add_argument("--json", action="store_true",
                    help="print the raw status document")

    ss = sub.add_parser("status", help="job or whole-server status")
    ss.add_argument("id", nargs="?", default=None,
                    help="job id (omit for the whole-server view)")
    ss.add_argument("--endpoint", default=None,
                    help="server socket (default: $REPRO_SERVE)")
    ss.add_argument("--hosts", action="store_true",
                    help="show per-host health in the whole-server view "
                         "(breaker state, failure/quarantine counters)")
    ss.add_argument("--json", action="store_true",
                    help="print the raw status document")

    cn = sub.add_parser("cancel", help="cancel (or preempt) a served job")
    cn.add_argument("id")
    cn.add_argument("--endpoint", default=None,
                    help="server socket (default: $REPRO_SERVE)")
    cn.add_argument("--preempt", action="store_true",
                    help="checkpoint-stop a running job instead of "
                         "cancelling it outright (resume later)")

    rs = sub.add_parser("resume", help="re-queue a preempted job")
    rs.add_argument("id")
    rs.add_argument("--endpoint", default=None,
                    help="server socket (default: $REPRO_SERVE)")

    chk = sub.add_parser("check",
                         help="differential fuzzing across every oracle")
    chk.add_argument("--seeds", type=int, default=25,
                     help="number of generated programs")
    chk.add_argument("--start-seed", type=int, default=0)
    chk.add_argument("--tiers", default=None,
                     help="comma-separated oracle tiers (default: "
                          "every tier)")
    chk.add_argument("--no-shrink", action="store_true",
                     help="report divergences without shrinking to corpus")
    chk.add_argument("--corpus-dir", default=None,
                     help="where shrunk repros go "
                          "(default: tests/check/corpus/)")
    chk.add_argument("--quiet", action="store_true",
                     help="suppress per-seed progress lines")
    return p


def _render(result) -> str:
    if isinstance(result, SeriesResult):
        return render_series(result)
    return render_table(result)


def _format_record(rec: dict) -> str:
    """One human-readable line per stream record (for trace/tail)."""
    kind = rec.get("t", "?")
    if kind == "trace":
        extra = ""
        if "addr" in rec:
            extra = f" addr={rec['addr']} size={rec['size']}"
        elif "target" in rec:
            extra = f" target={rec['target']} taken={rec['taken']}"
        return (f"{rec['cycle']:>12}  {rec['pc']:>12}  {rec['op']:<10}"
                f" [{rec['window']}]{extra}")
    if kind == "marker":
        return (f"{rec['cycle']:>12}  {rec['pc']:>12}  MARKER     "
                f"id={rec['id']} value={rec['value']}")
    if kind == "window":
        what = rec["event"]
        tail = (f" reason={rec['reason']} records={rec['records']}"
                if what == "close" else f" pc={rec.get('pc')}")
        return (f"{rec.get('cycle', ''):>12}  {'':>12}  WINDOW-{what.upper()}"
                f" [{rec['window']}]{tail}")
    if kind == "counter":
        hot = sorted(rec.get("counters", {}).items(),
                     key=lambda kv: -abs(kv[1]))[:3]
        summary = ", ".join(f"{k}={v}" for k, v in hot)
        return (f"{rec['cycle']:>12}  {'':>12}  COUNTER    "
                f"sample={rec['sample']} {summary}")
    if kind == "serve":
        extra = "".join(f" {k}={rec[k]}" for k in ("host", "error")
                        if rec.get(k) is not None)
        return (f"{'':>12}  {'':>12}  SERVE      event={rec['event']} "
                f"job={rec.get('job')} state={rec.get('state')}{extra}")
    if kind == "meta":
        # instrument streams carry config/resumed; serve streams carry
        # the job identity instead — show whichever fields are present
        fields = " ".join(f"{k}={rec[k]}" for k in
                          ("source", "config", "workload", "job", "resumed")
                          if k in rec)
        return f"{'':>12}  {'':>12}  META       {fields}"
    if kind == "seal":
        return (f"{'':>12}  {'':>12}  SEAL       reason={rec['reason']} "
                f"records={rec['records']}")
    return json.dumps(rec)


def _instrumented_kernel_run(args, spec):
    """Shared body of `repro trace` / `repro counters`: run one kernel
    with *spec* attached, return (kernel, system, result, records).

    Runs through the token-lockstep path so the instrument observes
    chunk-sized slices: ``--chunk`` is the resolution/overhead dial
    (smaller chunks, finer cycle stamps and sample alignment).
    """
    from .instrument import Instrument, read_stream
    from .soc.system import System

    kern = get_kernel(args.kernel)
    trace = kern.build(scale=max(args.scale, kern.min_harness_scale),
                       seed=args.seed)
    system = System(get_config(args.config))
    instrument = Instrument(spec, path=args.out)
    system.attach_instrument(instrument)
    chunk = max(1, args.chunk)
    result = system.run_parallel([trace], quantum=2 * chunk, chunk=chunk)[0]
    instrument.seal()
    return kern, system, result, read_stream(instrument.stream)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        if args.what == "configs":
            for name, cfg in ALL_CONFIGS.items():
                kind = "silicon" if cfg.is_silicon else "firesim"
                print(f"{name:18} {kind:8} {cfg.ncores}x {cfg.core_type} "
                      f"@ {cfg.core_ghz} GHz")
        elif args.what == "kernels":
            for kern in runnable_kernels():
                s = kern.spec
                print(f"{s.name:12} {s.category:14} {s.description}")
        else:
            for eid, fn in EXPERIMENTS.items():
                doc = (fn.__doc__ or "").strip().splitlines()[0]
                print(f"{eid:10} {doc}")
        return 0

    if args.command == "kernel":
        run = run_kernel(get_config(args.config), args.name, scale=args.scale)
        r = run.result
        print(f"{args.name} on {args.config}: {r.cycles} cycles, "
              f"CPI {r.cpi:.2f}, {run.seconds * 1e6:.1f} us, "
              f"{r.mispredicts} mispredicts, {r.l1d_misses} L1D misses")
        return 0

    if args.command == "compare":
        hw_cfg, sim_cfg = _PAIRS[args.pair]
        hw = run_kernel(hw_cfg, args.name, scale=args.scale)
        sim = run_kernel(sim_cfg, args.name, scale=args.scale)
        rel = relative_speedup(hw.seconds, sim.seconds)
        print(f"{args.name}: {hw_cfg.name} {hw.seconds * 1e6:.1f} us | "
              f"{sim_cfg.name} {sim.seconds * 1e6:.1f} us | "
              f"relative speedup {rel:.3f}")
        return 0

    if args.command == "perf":
        from .analysis.perf import perf_stat
        from .workloads.microbench import get_kernel as _gk

        kern = _gk(args.name)
        trace = kern.build(scale=max(args.scale, kern.min_harness_scale))
        rep = perf_stat(get_config(args.config), trace,
                        warmup=not args.cold and kern.needs_warmup)
        print(rep.to_json() if args.json else rep.render())
        return 0

    if args.command == "stats" and args.store:
        from .farm import SharedResultStore

        snap = SharedResultStore(args.store).stats_snapshot()
        if args.json:
            text = json.dumps(snap.data, indent=2, sort_keys=True)
        elif args.csv:
            text = snap.to_csv().rstrip("\n")
        else:
            text = f"shared store {args.store}\n" + "\n".join(
                f"  {k} = {v}" for k, v in sorted(snap.flat().items()))
        print(text)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        return 0

    if args.command == "stats":
        from .soc.system import System
        from .telemetry import StatsRegistry, cpi_stack

        kern = get_kernel(args.kernel)
        trace = kern.build(scale=max(args.scale, kern.min_harness_scale))
        cfg = get_config(args.config)
        system = System(cfg)
        registry = StatsRegistry(system)
        if not args.cold and kern.needs_warmup:
            system.warm(trace)
        base = registry.snapshot()
        result = system.run(trace)
        delta = registry.delta(base)
        stack = cpi_stack(system, result, delta)
        if args.csv:
            text = delta.to_csv().rstrip("\n")
        elif args.json:
            text = json.dumps({
                "schema": delta["schema"],
                "config": cfg.name,
                "kernel": kern.spec.name,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "cpi": round(result.cpi, 4),
                "tiles": [stack.to_dict()],
                "counters": delta.data,
            }, indent=2)
        else:
            text = (f"{kern.spec.name} on {cfg.name}\n{stack.render()}\n\n"
                    f"counter delta (warmed window):\n"
                    + "\n".join(f"  {k} = {v}"
                                for k, v in sorted(delta.flat().items())
                                if isinstance(v, (int, float)) and v))
        print(text)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        return 0

    if args.command == "farm":
        from .farm import Job, RunFarm, resolve_cache

        cfg_names = [c for c in args.configs.split(",") if c]
        kernel_names = ([k for k in args.kernels.split(",") if k]
                        if args.kernels
                        else [k.spec.name for k in runnable_kernels()])
        jobs = [Job.kernel(get_config(c), k, scale=args.scale, seed=args.seed,
                           quantum=args.quantum)
                for c in cfg_names for k in kernel_names]
        cache = (None if args.no_cache
                 else resolve_cache(args.cache_dir))
        plan = None
        if args.fault_plan:
            from .reliability import FaultPlan

            text = args.fault_plan
            if text.startswith("@"):
                with open(text[1:]) as f:
                    text = f.read()
            plan = FaultPlan.parse(text, seed=args.fault_seed)

        done = 0
        width = max(len(j.label) for j in jobs)

        def progress(ev) -> None:
            nonlocal done
            if ev.kind == "start":
                return
            if ev.kind == "retry":
                print(f"[{done:>{len(str(len(jobs)))}}/{len(jobs)}] "
                      f"{ev.job.label:<{width}}  retrying (attempt "
                      f"{ev.attempt} failed: {ev.error})", file=sys.stderr)
                return
            done += 1
            if ev.kind == "cache-hit":
                body = "cache hit"
            elif ev.kind == "failed":
                body = f"FAILED: {ev.error}"
            elif ev.kind == "interrupted":
                body = "interrupted"
            else:
                body = f"ok ({ev.elapsed_s:.2f}s, attempt {ev.attempt})"
            print(f"[{done:>{len(str(len(jobs)))}}/{len(jobs)}] "
                  f"{ev.job.label:<{width}}  {body}", file=sys.stderr)

        spec = None
        if args.instrument_dir or args.counters_interval:
            from .instrument import InstrumentSpec
            spec = InstrumentSpec(counter_interval=args.counters_interval)

        farm = RunFarm(workers=args.workers, cache=cache,
                       timeout_s=args.timeout, max_retries=args.retries,
                       on_event=None if args.quiet else progress,
                       fault_plan=plan, checkpoint_dir=args.checkpoint_dir,
                       checkpoint_every=args.checkpoint_every,
                       manifest_path=args.manifest,
                       instrument=spec, instrument_dir=args.instrument_dir,
                       deploy=args.deploy)
        results = farm.run(jobs)
        stats = farm.stats

        if args.json:
            print(json.dumps({
                "jobs": [
                    {
                        "label": r.job.label,
                        "config": r.job.config.name,
                        "kernel": r.job.workload,
                        "status": r.status,
                        "from_cache": r.from_cache,
                        "attempts": r.attempts,
                        "error": r.error,
                        "cycles": (r.payload or {}).get("cycles"),
                        "seconds": (r.payload or {}).get("seconds"),
                    }
                    for r in results
                ],
                "stats": stats.to_snapshot().data,
            }, indent=2))
        else:
            for r in results:
                if r.ok:
                    src = "cache" if r.from_cache else f"run x{r.attempts}"
                    print(f"{r.job.label:<{width}}  "
                          f"{r.payload['cycles']:>12,} cycles  "
                          f"{r.payload['seconds'] * 1e6:>10.1f} us  [{src}]")
                elif r.status == "interrupted":
                    print(f"{r.job.label:<{width}}  interrupted")
                else:
                    print(f"{r.job.label:<{width}}  FAILED: {r.error}")
            extra = ""
            for label, n in (("resumed", stats.resumed),
                             ("quarantined", stats.corrupt),
                             ("interrupted", stats.interrupted)):
                if n:
                    extra += f", {n} {label}"
            print(f"farm: {stats.ok}/{stats.jobs} ok, "
                  f"{stats.cache_hits} cache hit(s), "
                  f"{stats.simulated} simulated, {stats.retries} retried, "
                  f"{stats.failed} failed{extra} "
                  f"({farm.workers} worker(s))")
        return 0 if stats.failed == 0 and stats.interrupted == 0 else 1

    if args.command == "checkpoint":
        from .reliability import SimCheckpoint
        from .soc.system import System
        from .telemetry import StatsRegistry

        if args.info:
            ckpt = SimCheckpoint.load(args.info)  # verifies the digest
            state = "bare snapshot" if ckpt.lanes is None else (
                f"mid-run at quantum {ckpt.quanta}")
            print(f"{args.info}: schema {ckpt.schema}, "
                  f"config {ckpt.config_name} ({ckpt.config_fp[:12]}...), "
                  f"{state}, digest {ckpt.digest[:16]}... (verified)")
            for key in sorted(k for k in ckpt.extras if k != "baseline"):
                print(f"  extras.{key} = {ckpt.extras[key]!r}")
            return 0

        kern = get_kernel(args.kernel)
        scale = max(args.scale, kern.min_harness_scale)
        trace = kern.build(scale=scale, seed=args.seed)
        cfg = get_config(args.config)
        system = System(cfg)
        registry = StatsRegistry(system)
        warmup = not args.cold and kern.needs_warmup
        if warmup:
            system.run(trace)
        base = registry.snapshot()
        chunk = args.chunk or max(1, args.quantum // 2)
        run = system.start_parallel([trace], quantum=args.quantum, chunk=chunk)
        while not run.done and (args.at <= 0 or run.quanta < args.at):
            run.step()
        ckpt = run.checkpoint(extras={
            "kernel": kern.spec.name, "scale": scale, "seed": args.seed,
            "warmup": warmup, "baseline": base.data,
        })
        ckpt.save(args.out)
        print(f"saved {args.out}: {cfg.name}/{kern.spec.name} at quantum "
              f"{ckpt.quanta} ({'finished' if run.done else 'mid-run'}), "
              f"digest {ckpt.digest[:16]}...")
        return 0

    if args.command == "replay":
        from .reliability import SimCheckpoint
        from .soc.system import System

        ckpt = SimCheckpoint.load(args.file)
        meta = ckpt.extras
        kern = get_kernel(meta["kernel"])
        trace = kern.build(scale=meta["scale"], seed=meta["seed"])
        cfg = get_config(ckpt.config_name)
        system = System(cfg)
        run = system.restore(ckpt, [trace])
        if run is None:
            print(f"{args.file}: bare snapshot restored onto {cfg.name} "
                  "(no run to replay)")
            return 0
        start_q = run.quanta
        run.run()
        result = run.results()[0]
        print(f"{cfg.name}/{meta['kernel']}: resumed at quantum {start_q}, "
              f"finished at {run.quanta}: {result.cycles} cycles, "
              f"{result.instructions} instructions, CPI {result.cpi:.3f}")
        if args.verify:
            import dataclasses as _dc

            ref_sys = System(get_config(ckpt.config_name))
            ref_trace = kern.build(scale=meta["scale"], seed=meta["seed"])
            if meta.get("warmup"):
                ref_sys.run(ref_trace)
            ref = ref_sys.run_parallel(
                [ref_trace], quantum=ckpt.scheduler["quantum"],
                chunk=ckpt.lanes[0]["chunk"])[0]
            if _dc.asdict(ref) == _dc.asdict(result):
                print("verify: PASS (bit-identical to the uninterrupted run)")
            else:
                print("verify: FAIL (resumed run diverged!)")
                return 1
        return 0

    if args.command == "serve":
        import asyncio

        from .serve import FarmServer

        quotas: dict[str, int] = {}
        for spec_ in args.tenant_quota:
            tenant, _, n = spec_.partition("=")
            if not tenant or not n.isdigit():
                print(f"bad --tenant-quota {spec_!r} (want TENANT=N)",
                      file=sys.stderr)
                return 2
            quotas[tenant] = int(n)
        fault_plan = None
        if args.fault_plan:
            from .reliability import FaultPlan

            fault_plan = FaultPlan.parse(args.fault_plan,
                                         seed=args.fault_seed)
        server = FarmServer(
            args.spool, deploy=args.deploy,
            store=(False if args.no_store else args.store_dir),
            quotas=quotas or None, default_quota=args.quota,
            max_retries=args.retries, timeout_s=args.timeout,
            checkpoint_every=args.checkpoint_every,
            socket_path=args.socket,
            store_max_entries=args.store_max_entries,
            store_max_bytes=args.store_max_bytes,
            recover=args.recover, fault_plan=fault_plan,
            suspect_after=args.suspect_after,
            quarantine_after=args.quarantine_after,
            probe_interval=args.probe_interval)
        if args.recover:
            requeued = sum(1 for r in server.jobs.values() if r.recovered)
            print(f"journal replayed: {len(server.jobs)} job(s), "
                  f"{requeued} re-enqueued", file=sys.stderr)

        def announce() -> None:
            dep = server.deploy.describe()
            print(f"serving on {server.socket_path} "
                  f"({dep['kind']}, {server.deploy.total_slots} slot(s)); "
                  f"clients: --endpoint {server.socket_path}",
                  file=sys.stderr)

        try:
            asyncio.run(server.serve_forever(on_started=announce))
        except KeyboardInterrupt:
            print("interrupted; spool state kept", file=sys.stderr)
        return 0

    if args.command in ("submit", "status", "cancel", "resume"):
        from .serve import ServeClient, ServeError

        endpoint = args.endpoint or os.environ.get("REPRO_SERVE")
        if not endpoint:
            print("no server endpoint: pass --endpoint or set $REPRO_SERVE",
                  file=sys.stderr)
            return 2
        client = ServeClient(endpoint)

        def _job_line(doc: dict) -> str:
            line = (f"{doc['id']} {doc['label']} "
                    f"[{doc['tenant']} p{doc['priority']}]: {doc['state']}")
            if doc.get("cycles") is not None:
                line += f", {doc['cycles']:,} cycles"
            if doc.get("from_cache"):
                line += " [store]"
            if doc.get("resumed"):
                line += " [resumed]"
            if doc.get("error"):
                line += f" ({doc['error']})"
            return line

        try:
            if args.command == "submit":
                from .farm import Job

                job = Job.kernel(get_config(args.config), args.kernel,
                                 scale=args.scale, seed=args.seed,
                                 quantum=args.quantum,
                                 timeout_s=args.timeout)
                instrument = None
                if args.counters_interval:
                    from .instrument import InstrumentSpec

                    instrument = InstrumentSpec(
                        counter_interval=args.counters_interval).to_dict()
                doc = client.submit(job, tenant=args.tenant,
                                    priority=args.priority,
                                    instrument=instrument)
                if args.tail and doc["state"] in ("queued", "running"):
                    for rec in client.tail(doc["id"], follow=True):
                        print(_format_record(rec), flush=True)
                    doc = client.status(doc["id"])
                elif args.wait:
                    doc = client.wait(doc["id"])
                print(json.dumps(doc, indent=2, sort_keys=True)
                      if args.json else _job_line(doc))
                if not args.json and doc.get("stream"):
                    print(f"  stream: {doc['stream']}")
                return 0 if doc["state"] != "failed" else 1

            if args.command == "status":
                if args.id:
                    doc = client.status(args.id, payload=args.json)
                    if args.json:
                        print(json.dumps(doc, indent=2, sort_keys=True))
                    else:
                        print(_job_line(doc))
                        if doc.get("stream"):
                            print(f"  stream: {doc['stream']}")
                        for s in doc.get("instrument_streams", []):
                            print(f"  instrument: {s}")
                    return 0
                doc = client.status()
                if args.json:
                    print(json.dumps(doc, indent=2, sort_keys=True))
                    return 0
                dep = doc["deploy"]
                busy = sum(h["busy"] for h in dep["hosts"])
                print(f"deploy: {dep['kind']}, {busy}/{dep['total_slots']} "
                      f"slot(s) busy")
                if args.hosts:
                    for h in dep["hosts"]:
                        print(f"  host {h['name']}: {h['busy']}/{h['slots']} "
                              f"busy, {h['state']}, "
                              f"{h['consecutive_failures']} consecutive / "
                              f"{h['failures']} total failure(s), "
                              f"{h['successes']} ok, "
                              f"{h['quarantines']} quarantine(s)")
                for name, t in doc["scheduler"]["tenants"].items():
                    print(f"tenant {name}: {t['running']} running, "
                          f"{t['queued']} queued, quota {t['quota']}")
                for j in doc["jobs"]:
                    print(_job_line(j))
                if "store" in doc:
                    s = doc["store"]
                    print(f"store: {s['entries']} entries, {s['bytes']} "
                          f"bytes, hit rate {s['hit_rate']:.1%} "
                          f"({s['hits']} hit(s), {s['misses']} miss(es), "
                          f"{s['evictions']} evicted)")
                return 0

            if args.command == "cancel":
                doc = client.cancel(args.id, preempt=args.preempt)
                verb = "preempting" if args.preempt else "cancelling"
                print(f"{doc['id']}: {doc['state']}"
                      + (f" ({verb})" if doc["state"] == "running" else ""))
                return 0

            doc = client.resume(args.id)  # resume
            print(_job_line(doc))
            return 0
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.command == "check":
        from pathlib import Path

        from .check import ALL_TIERS, run_check

        tiers = ([t for t in args.tiers.split(",") if t]
                 if args.tiers else ALL_TIERS)
        report = run_check(
            seeds=args.seeds, start_seed=args.start_seed, tiers=tiers,
            shrink=not args.no_shrink,
            corpus_dir=Path(args.corpus_dir) if args.corpus_dir else None,
            progress=None if args.quiet
            else (lambda msg: print(msg, file=sys.stderr)))
        print(report.summary())
        return 0 if report.ok else 1

    if args.command == "trace":
        from .instrument import InstrumentSpec, TraceTrigger

        trigger = TraceTrigger(
            start_pc=args.start_pc, start_cycle=args.start_cycle,
            stop_pc=args.stop_pc, stop_cycle=args.stop_cycle,
            length=args.length, max_records=args.max_records, label="cli")
        spec = InstrumentSpec(triggers=(trigger,),
                              counter_interval=args.interval)
        kern, system, result, records = _instrumented_kernel_run(args, spec)
        shown = 0
        for rec in records:
            if rec["t"] in ("meta", "seal") and not args.json:
                continue
            print(json.dumps(rec) if args.json else _format_record(rec))
            shown += 1
        n_trace = sum(1 for r in records if r["t"] == "trace")
        print(f"# {kern.spec.name} on {args.config}: {result.cycles} cycles, "
              f"{n_trace} trace record(s), {len(records)} total",
              file=sys.stderr)
        if args.out:
            print(f"# stream written to {args.out}", file=sys.stderr)
        return 0

    if args.command == "counters":
        from .analysis.instrument import (flamegraph_folded, interval_cpi,
                                          render_intervals)
        from .instrument import InstrumentSpec

        spec = InstrumentSpec(counter_interval=args.interval)
        kern, system, result, records = _instrumented_kernel_run(args, spec)
        if args.flamegraph:
            print(flamegraph_folded(records), end="")
        else:
            intervals = interval_cpi(records)
            if args.json:
                print(json.dumps(intervals, indent=2))
            else:
                print(f"{kern.spec.name} on {args.config}: "
                      f"{len(intervals)} interval(s) of {args.interval} "
                      f"cycle(s), whole-run CPI {result.cpi:.3f}")
                print(render_intervals(intervals))
        if args.out:
            print(f"# stream written to {args.out}", file=sys.stderr)
        return 0

    if args.command == "tail":
        from .instrument import tail_stream

        kinds = (set(args.kinds.split(",")) if args.kinds else None)
        sealed = False
        for rec in tail_stream(args.file, follow=args.follow,
                               timeout_s=args.timeout):
            if kinds is None or rec.get("t") in kinds:
                print(_format_record(rec), flush=True)
            if rec.get("t") == "seal":
                sealed = True
        if args.follow and not sealed:
            print(f"# timed out after {args.timeout:g}s without a seal",
                  file=sys.stderr)
            return 1
        return 0

    if args.command == "npb":
        res = NPB_RUNNERS[args.bench](get_config(args.config),
                                      nranks=args.ranks, cls=args.cls)
        print(res)
        return 0 if res.verified else 1

    # experiment
    text = _render(EXPERIMENTS[args.id]())
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
