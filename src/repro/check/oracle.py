"""Differential oracles: run one program through every independent path.

Each tier executes the same generated program (or its micro-op trace)
through two implementations that must agree, and returns a list of
human-readable divergence strings (empty = agreement):

``golden``      :class:`repro.isa.interp.Interpreter` vs the bit-level
                :class:`repro.check.golden.GoldenMachine` — full
                architectural state (both register files, memory, pc).
``checkpoint``  a run interrupted at a seeded quantum, checkpointed, and
                restored into a fresh system (reusing the original
                watchdog, as a crash-recovery supervisor would) vs the
                straight-through run.
``instrument``  a run with trace windows / counter sampling / marker
                decoding attached (and one checkpoint-interrupted and
                re-armed) vs the bare run — results must be
                bit-identical and the stream well-formed.
``farm``        programs executed as farm jobs, 2 workers + cache replay,
                vs in-process serial execution.
``lint``        internal invariants on a single instrumented run: CPI
                stacks sum exactly, counter deltas are monotone, stats
                snapshots survive the JSON and CSV round trips.
"""

from __future__ import annotations

import random
import struct
import tempfile
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from ..isa.interp import Interpreter
from .golden import GoldenMachine
from .progen import CheckProgram

__all__ = [
    "Divergence",
    "diff_batch",
    "diff_checkpoint",
    "diff_farm",
    "diff_golden",
    "diff_instrument",
    "lint_invariants",
    "run_program",
]

_M64 = (1 << 64) - 1
DEFAULT_FUEL = 200_000


@dataclass
class Divergence:
    """One disagreement between two paths that must match."""

    oracle: str     #: tier name: golden | lint | batch | checkpoint | ...
    seed: int       #: generating seed (-1 for corpus programs)
    detail: str     #: what differed, with both values

    def __str__(self) -> str:
        return f"[{self.oracle}] seed={self.seed}: {self.detail}"


def _fbits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _interp_mem_bytes(mem) -> dict[int, int]:
    """Canonical {byte address: value} view of the interpreter memory."""
    out: dict[int, int] = {}
    for pno, mask in mem._present.items():
        page = mem._pages[pno]
        base = pno << 12
        off = 0
        while mask:
            if mask & 1:
                out[base + off] = page[off]
            mask >>= 1
            off += 1
    return out


def run_program(prog: CheckProgram, fuel: int = DEFAULT_FUEL) -> Interpreter:
    """Execute *prog* on the interpreter (trace retained for the timing
    tiers); returns the finished interpreter."""
    interp = Interpreter(prog.words, base=prog.base, trace=True)
    interp.run(fuel)
    return interp


# -- tier 1: interpreter vs golden semantics --------------------------------


def diff_golden(prog: CheckProgram, fuel: int = DEFAULT_FUEL,
                interp: Interpreter | None = None) -> list[str]:
    """Full architectural diff of the interpreter against the golden
    model; every line names one mismatching piece of state."""
    if interp is None:
        interp = run_program(prog, fuel)
    gold = GoldenMachine(prog.words, base=prog.base).run(fuel)

    diffs: list[str] = []
    if interp.retired != gold.retired:
        diffs.append(f"retired: interp={interp.retired} golden={gold.retired}")
    if interp.halted != gold.halted:
        diffs.append(f"halted: interp={interp.halted} golden={gold.halted}")
    if interp.pc != gold.pc:
        diffs.append(f"pc: interp={interp.pc:#x} golden={gold.pc:#x}")
    for i in range(32):
        a, b = interp.regs[i] & _M64, gold.xregs[i]
        if a != b:
            diffs.append(f"x{i}: interp={a:#018x} golden={b:#018x}")
    for i in range(32):
        a, b = _fbits(interp.fregs[i]), gold.fregs[i]
        if a != b:
            diffs.append(f"f{i}: interp={a:#018x} golden={b:#018x}")
    imem = _interp_mem_bytes(interp.mem)
    gmem = {a: v for a, v in gold.mem.items()}
    for addr in sorted(set(imem) | set(gmem)):
        a, b = imem.get(addr), gmem.get(addr)
        if a != b:
            diffs.append(f"mem[{addr:#x}]: interp={a} golden={b}")
            if len(diffs) > 40:  # a wild store sprays thousands of bytes
                diffs.append("... memory diff truncated")
                break
    return diffs


# -- shared diffing ----------------------------------------------------------


def _dict_diff(a: dict, b: dict, prefix: str = "",
               labels: tuple[str, str] = ("got", "want")) -> list[str]:
    la, lb = labels
    out: list[str] = []
    for k in sorted(set(a) | set(b)):
        ka, kb = a.get(k), b.get(k)
        path = f"{prefix}.{k}" if prefix else str(k)
        if isinstance(ka, dict) and isinstance(kb, dict):
            out += _dict_diff(ka, kb, path, labels)
        elif ka != kb:
            out.append(f"{path}: {la}={ka!r} {lb}={kb!r}")
    return out


# -- tier 3: checkpoint/restore at a random quantum vs straight-through ----


def diff_checkpoint(trace, seed: int, config_name: str = "Rocket2",
                    quantum: int = 256, chunk: int = 128) -> list[str]:
    """Interrupt, checkpoint, crash, restore, finish — compare with the
    uninterrupted run.

    The donor run keeps executing *after* the checkpoint (the crash it
    models happens later), and the restore reuses the donor's watchdog —
    exactly what a retrying supervisor does.  A correct restore re-arms
    the watchdog; a stale one sees the resumed (earlier) lane clocks as
    "no progress" and hangs spuriously.
    """
    from ..reliability import SimulationHang
    from ..reliability.watchdog import LockstepWatchdog
    from ..soc.presets import get_config
    from ..soc.system import System

    cfg = get_config(config_name)
    ntiles = min(2, cfg.ncores)
    traces = [trace] * ntiles

    ref = System(cfg).run_parallel(traces, quantum=quantum, chunk=chunk)

    watchdog = LockstepWatchdog(k_quanta=4)
    donor_sys = System(cfg)
    donor = donor_sys.start_parallel(traces, quantum=quantum, chunk=chunk,
                                     watchdog=watchdog)
    rng = random.Random(seed ^ 0xC0FFEE)
    budget = rng.randrange(1, 8)
    for _ in range(budget):
        if not donor.step():
            break
    if donor.done:  # too short to interrupt: straight-through only
        got = donor.results()
        return [f"{config_name}: tile {i} short-run mismatch: {d}"
                for i, (a, b) in enumerate(zip(got, ref))
                for d in _dict_diff(asdict(a), asdict(b))]
    ckpt = donor.checkpoint()
    donor.run()  # the modelled crash happens after more progress

    resumed = System(cfg).restore(ckpt, traces, watchdog=watchdog)
    try:
        resumed.run()
    except SimulationHang as exc:
        return [f"{config_name}: spurious watchdog hang after restore "
                f"(quantum={quantum}, ckpt@{budget}): {exc}"]
    got = resumed.results()
    diffs: list[str] = []
    for i, (a, b) in enumerate(zip(got, ref)):
        for line in _dict_diff(asdict(a), asdict(b)):
            diffs.append(f"{config_name}: tile {i} resumed vs straight: {line}")
    return diffs


# -- tier: instrumented vs bare ----------------------------------------------


def diff_instrument(trace, seed: int, config_name: str = "Rocket2",
                    quantum: int = 256, chunk: int = 128) -> list[str]:
    """Instrumentation must be pure observation: a run with trace
    windows, counter sampling, and marker decoding attached — including
    one interrupted by a checkpoint and restored with the instrument
    re-armed — must produce results bit-identical to the bare run, and
    its stream must be well-formed (meta first, seal last, every window
    open balanced by a close).
    """
    from ..instrument import (Instrument, InstrumentSpec, TraceTrigger,
                              read_stream)
    from ..soc.presets import get_config
    from ..soc.system import System

    cfg = get_config(config_name)
    ntiles = min(2, cfg.ncores)
    traces = [trace] * ntiles

    ref = System(cfg).run_parallel(traces, quantum=quantum, chunk=chunk)
    total_cycles = int(max((r.cycles for r in ref), default=0))

    rng = random.Random(seed ^ 0x1A7E)
    spec = InstrumentSpec(
        triggers=(
            TraceTrigger(start_cycle=rng.randrange(1, max(2, total_cycles)),
                         length=rng.randrange(0, 64), label="chk"),
            TraceTrigger(length=32, label="head"),   # overlapping window
        ),
        counter_interval=max(1, total_cycles // 3 or 1),
    )

    diffs: list[str] = []

    # straight-through instrumented run
    sys_i = System(cfg)
    inst = Instrument(spec)
    sys_i.attach_instrument(inst)
    got = sys_i.run_parallel(traces, quantum=quantum, chunk=chunk)
    inst.seal()
    for i, (a, b) in enumerate(zip(got, ref)):
        for line in _dict_diff(asdict(a), asdict(b)):
            diffs.append(f"{config_name}: tile {i} instrumented vs bare: "
                         f"{line}")
    diffs += _lint_stream(read_stream(inst.stream), config_name)

    # interrupted + restored with the instrument re-armed mid-window
    donor_sys = System(cfg)
    donor_inst = Instrument(spec)
    donor_sys.attach_instrument(donor_inst)
    donor = donor_sys.start_parallel(traces, quantum=quantum, chunk=chunk)
    for _ in range(rng.randrange(1, 8)):
        if not donor.step():
            break
    if not donor.done:
        ckpt = donor.checkpoint()
        donor_inst.seal(reason="checkpoint")
        resume_sys = System(cfg)
        resume_inst = Instrument(spec)
        resume_sys.attach_instrument(resume_inst)
        resumed = resume_sys.restore(ckpt, traces)
        resumed.run()
        resume_inst.seal()
        for i, (a, b) in enumerate(zip(resumed.results(), ref)):
            for line in _dict_diff(asdict(a), asdict(b)):
                diffs.append(f"{config_name}: tile {i} instrumented resume "
                             f"vs bare: {line}")
    return diffs


def _lint_stream(records: list[dict], config_name: str) -> list[str]:
    """Structural well-formedness of one parsed stream."""
    out = []
    if not records:
        return [f"{config_name}: instrument stream is empty"]
    if records[0].get("t") != "meta":
        out.append(f"{config_name}: stream does not start with meta: "
                   f"{records[0]}")
    if records[-1].get("t") != "seal":
        out.append(f"{config_name}: stream is not sealed: {records[-1]}")
    opens = sum(1 for r in records
                if r.get("t") == "window" and r.get("event") == "open")
    closes = sum(1 for r in records
                 if r.get("t") == "window" and r.get("event") == "close")
    if opens != closes:
        out.append(f"{config_name}: {opens} window opens vs {closes} closes")
    known = {"meta", "window", "trace", "counter", "marker", "seal"}
    for r in records:
        if r.get("t") not in known:
            out.append(f"{config_name}: unknown record kind {r.get('t')!r}")
            break
    return out


# -- tier 4: farm vs serial --------------------------------------------------


# -- batch tier: config-batched sweep vs serial per-config jobs -------------


def diff_batch(kernel: str, config_names: Sequence[str] | None = None,
               seed: int = 0, scale: float = 0.3,
               resume: bool = True) -> list[str]:
    """Config-batched sweep vs serial per-config jobs, bit-for-bit.

    Three legs over the same (kernel, scale, seed) and config set, with
    every in-process cache cleared between them so memoization can never
    mask a divergence:

    1. *serial*: one ``Job.kernel`` per config through
       :func:`~repro.farm.job.execute_job` — the farm's ordinary path —
       with the caches cleared before each, so every branch front end
       is resolved live (the batched leg reuses them across configs).
    2. *batched*: one ``Job.sweep`` over all configs — the trace is
       compiled once and every config runs over the shared compiled
       form, in input order.
    3. *resume* (on by default): the batched job again, but killed by an
       injected worker fault after half the configs and restarted from
       its mid-run checkpoint.

    Every per-config payload must agree across all legs.
    """
    import json as _json
    import tempfile

    from ..accel import memo
    from ..farm.job import ExecContext, Job, execute_job
    from ..reliability.faults import Fault, FaultInjected
    from ..soc.presets import ALL_CONFIGS, get_config

    names = sorted(ALL_CONFIGS) if config_names is None else list(config_names)
    configs = [get_config(n) for n in names]
    diffs: list[str] = []

    serial = {}
    for cfg in configs:
        # per config, so no front end is reused from an earlier one
        memo.clear_caches()
        payload = execute_job(Job.kernel(cfg, kernel, scale=scale, seed=seed))
        serial[cfg.name] = _json.loads(_json.dumps(payload))

    sweep_job = Job.sweep(configs, kernel, scale=scale, seed=seed)
    memo.clear_caches()
    batched = execute_job(sweep_job)["points"]

    for name in names:
        for line in _dict_diff(batched[name], serial[name],
                               labels=("batched", "serial")):
            diffs.append(f"{name}: {line}")

    if resume and len(configs) > 1:
        kill_at = max(1, len(configs) // 2)
        fault = Fault("kill", (("after", kill_at),))
        with tempfile.TemporaryDirectory() as ckpt_dir:
            memo.clear_caches()
            ctx = ExecContext(fault=fault, checkpoint_dir=ckpt_dir,
                              checkpoint_every=1, in_process=True)
            try:
                execute_job(sweep_job, ctx=ctx)
                diffs.append("resume: injected kill fault did not fire")
            except FaultInjected:
                pass
            memo.clear_caches()
            ctx2 = ExecContext(checkpoint_dir=ckpt_dir, in_process=True)
            resumed = execute_job(sweep_job, ctx=ctx2)["points"]
            if not ctx2.meta.get("resumed"):
                diffs.append("resume: retry did not pick up the checkpoint")
            for name in names:
                for line in _dict_diff(resumed[name], batched[name],
                                       labels=("resumed", "batched")):
                    diffs.append(f"{name}: {line}")

    return diffs


def diff_farm(progs: Iterable[CheckProgram],
              config_name: str = "Rocket1", workers: int = 2) -> list[str]:
    """Execute programs as farm jobs (parallel + cache replay) and diff
    every payload against in-process serial execution."""
    from ..farm import Job, ResultCache, RunFarm
    from ..soc.presets import get_config

    cfg = get_config(config_name)
    jobs = [Job.checkprog(cfg, f"check-{p.seed}", p.source, base=p.base)
            for p in progs]
    if not jobs:
        return []

    serial = RunFarm(workers=1).run(jobs)
    diffs: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-check-farm-") as tmp:
        cache = ResultCache(tmp)
        parallel = RunFarm(workers=workers, cache=cache).run(jobs)
        replay = RunFarm(workers=workers, cache=cache).run(jobs)
    for s, p, r in zip(serial, parallel, replay):
        label = s.job.workload
        if not (s.ok and p.ok and r.ok):
            diffs.append(f"{label}: status serial={s.status} "
                         f"parallel={p.status} replay={r.status}")
            continue
        for line in _dict_diff(p.payload, s.payload):
            diffs.append(f"{label}: parallel vs serial: {line}")
        for line in _dict_diff(r.payload, s.payload):
            diffs.append(f"{label}: cache replay vs serial: {line}")
        if not r.from_cache:
            diffs.append(f"{label}: replay was not served from cache")
    return diffs


# -- tier 5: invariant lint --------------------------------------------------


def _parse_csv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.strip().splitlines()[1:]:  # drop the header
        key, _, value = line.partition(",")
        out[key] = value
    return out


def lint_invariants(trace, config_name: str = "Rocket1") -> list[str]:
    """Telemetry invariants on one instrumented run of *trace*."""
    from ..soc.presets import get_config
    from ..soc.system import System
    from ..telemetry import BUCKETS, Snapshot, StatsRegistry, cpi_stack

    diffs: list[str] = []
    system = System(get_config(config_name))
    reg = StatsRegistry(system)
    before = reg.snapshot()
    result = system.run(trace)
    after = reg.snapshot()
    delta = after - before

    # 1. counter deltas are monotone (counters only ever count up)
    for key, value in delta.flat().items():
        if isinstance(value, (int, float)) and value < 0:
            diffs.append(f"counter went backwards: {key} delta={value}")

    # 2. the CPI stack sums exactly and covers every bucket
    stack = cpi_stack(system, result, delta)
    total = sum(stack.buckets.values())
    if total != result.cycles:
        diffs.append(f"cpi stack sums to {total}, cycles={result.cycles}")
    if set(stack.buckets) != set(BUCKETS):
        diffs.append(f"cpi stack buckets {sorted(stack.buckets)} != "
                     f"{sorted(BUCKETS)}")

    # 3. snapshots round-trip through JSON and CSV
    for snap in (before, after):
        back = Snapshot.from_json(snap.to_json())
        if back != snap:
            diffs.append("snapshot JSON round-trip lost data")
        flat = {k: str(v) for k, v in snap.flat().items()}
        csv_flat = _parse_csv(snap.to_csv())
        if flat != csv_flat:
            missing = set(flat) ^ set(csv_flat)
            changed = {k for k in set(flat) & set(csv_flat)
                       if flat[k] != csv_flat[k]}
            diffs.append(f"snapshot CSV round-trip mismatch: "
                         f"keys={sorted(missing)[:5]} "
                         f"values={sorted(changed)[:5]}")
    return diffs
