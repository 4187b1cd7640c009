"""Job specs and the worker-side execution of one farmed simulation.

A :class:`Job` is the unit FireSim's manager ships to a run-farm host:
the complete recipe for one independent simulation — which SoC
configuration, which workload, how many ranks, which seed.  Jobs are
plain frozen dataclasses so they pickle across the process boundary and
hash stably into the result cache (see :mod:`repro.farm.cache`).

:func:`execute_job` is the *only* execution path: the serial fallback,
every pool worker, and the cache-fill path all call it, which is what
makes farmed results bit-identical to serial runs — the payload a job
produces depends only on the job, never on which process ran it or in
what order.

Payloads are JSON-trees (ints, floats, strings, lists, dicts) rather
than live objects: they cross the worker pipe, land in the on-disk
cache, and are rehydrated into :class:`~repro.firesim.manager.SimulationReport`
objects by the callers that want them.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from .._atomic import atomic_write
from ..soc.config import SoCConfig, config_tree

__all__ = ["ExecContext", "Job", "JobResult", "JOB_KINDS", "execute_job",
           "execute_job_meta"]


@dataclass
class ExecContext:
    """Host-side execution context for one attempt of one job.

    Everything here is *provenance*, never identity: a job's payload must
    not depend on any of it (checkpoint resume is bit-identical, faults
    only kill/delay, ``in_process`` only selects how a kill manifests).
    """

    #: injected fault for this (job, attempt), from a FaultPlan
    fault: Any = None
    #: directory for mid-run checkpoints (None: checkpointing off)
    checkpoint_dir: str | os.PathLike | None = None
    #: quanta between checkpoint saves
    checkpoint_every: int = 8
    #: True when running in the caller's process (serial mode)
    in_process: bool = True
    #: instrumentation recipe (``InstrumentSpec.to_dict()`` form) to
    #: attach to kernel jobs; None leaves runs uninstrumented
    instrument_spec: dict[str, Any] | None = None
    #: directory for per-job instrument streams (``<label>.jsonl``,
    #: tail-able while the job runs); None keeps streams in memory
    instrument_dir: str | os.PathLike | None = None
    #: filled by the runner: {"resumed": bool, "checkpoints": int,
    #: "stream": path}
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    """One independent simulation: config + workload + ranks + seed."""

    config: SoCConfig
    kind: str                   #: "kernel" | "sweep" | "npb" | "selftest" | "checkprog"
    workload: str               #: kernel name / NPB benchmark / selftest mode
    seed: int = 0
    ranks: int = 1
    #: sorted (key, value) pairs of kind-specific knobs (scale, cls, ...)
    params: tuple[tuple[str, Any], ...] = ()
    #: per-job timeout override (None: use the farm-wide timeout)
    timeout_s: float | None = None
    #: selftest jobs carry injected faults and must never be cached
    cacheable: bool = True

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; available: {sorted(JOB_KINDS)}"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def kernel(cls, config: SoCConfig, name: str, scale: float = 1.0,
               seed: int = 0, warmup: bool = True,
               timeout_s: float | None = None,
               quantum: int | None = None,
               chunk: int | None = None) -> "Job":
        """A MicroBench kernel run (the fig1/fig2 inner loop).

        With *quantum* set, the measured pass runs through the token
        lockstep path in quanta of that many cycles — the execution mode
        that supports mid-run checkpointing and farm resume.  Chunked
        lockstep timing differs (legitimately) from the monolithic path,
        so the quantum is part of the job's identity: compare and cache
        only runs with identical execution options.  ``chunk`` defaults
        to ``quantum // 2``.
        """
        params: list[tuple[str, Any]] = [
            ("scale", float(scale)), ("warmup", bool(warmup))]
        if quantum is not None:
            params.append(("quantum", int(quantum)))
            if chunk is not None:
                params.append(("chunk", int(chunk)))
        return cls(config=config, kind="kernel", workload=name, seed=seed,
                   params=tuple(sorted(params)), timeout_s=timeout_s)

    @classmethod
    def sweep(cls, configs: Sequence[SoCConfig], name: str,
              scale: float = 1.0, seed: int = 0, warmup: bool = True,
              timeout_s: float | None = None) -> "Job":
        """One config-batched kernel sweep: every config, one compiled trace.

        The worker runs :func:`repro.accel.batch.batched_sweep` — the
        trace is compiled once and the configurations run over it one
        after another, in input order.  The payload maps config
        name to exactly the payload the matching ``Job.kernel`` would
        produce (the ``batch`` check tier enforces this bit-for-bit).
        Config names must be unique: they key the payload and the
        per-config checkpoint/resume bookkeeping.
        """
        configs = tuple(configs)
        if not configs:
            raise ValueError("sweep needs at least one config")
        names = [c.name for c in configs]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise ValueError(
                f"sweep configs must have unique names, got duplicates: "
                f"{sorted(dup)}")
        params: list[tuple[str, Any]] = [
            ("scale", float(scale)), ("warmup", bool(warmup)),
            ("configs", configs)]
        return cls(config=configs[0], kind="sweep", workload=name, seed=seed,
                   params=tuple(sorted(params)), timeout_s=timeout_s)

    @classmethod
    def npb(cls, config: SoCConfig, benchmark: str, ranks: int = 1,
            npb_class: str = "A", timeout_s: float | None = None) -> "Job":
        """An NPB benchmark run across *ranks* MPI ranks."""
        return cls(config=config, kind="npb", workload=benchmark, ranks=ranks,
                   params=(("cls", npb_class),), timeout_s=timeout_s)

    @classmethod
    def checkprog(cls, config: SoCConfig, name: str, source: str,
                  base: int = 0x1_0000, fuel: int = 200_000,
                  timeout_s: float | None = None) -> "Job":
        """A differential-checking program (see :mod:`repro.check`).

        *source* is RISC-V assembly text; the worker assembles it,
        interprets it for its micro-op trace, and times the trace on
        *config*.  The payload carries the full architectural result
        (register files, memory digest) plus the timing summary, so a
        farmed run can be diffed bit-for-bit against a serial one.
        """
        return cls(config=config, kind="checkprog", workload=name,
                   params=(("base", int(base)), ("fuel", int(fuel)),
                           ("source", source)),
                   timeout_s=timeout_s)

    @classmethod
    def selftest(cls, mode: str = "ok", config: SoCConfig | None = None,
                 timeout_s: float | None = None, **params: Any) -> "Job":
        """A fault-injection job for exercising the farm itself.

        Modes: ``ok`` (return a value), ``raise`` (always fail),
        ``hang`` (sleep ``sleep_s``, default 60), ``flaky`` (fail the
        first ``fail_times`` attempts, then succeed).
        """
        if config is None:
            from ..soc.presets import ROCKET1

            config = ROCKET1
        return cls(config=config, kind="selftest", workload=mode,
                   params=tuple(sorted(params.items())),
                   timeout_s=timeout_s, cacheable=False)

    # -- identity ------------------------------------------------------------

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def label(self) -> str:
        if self.kind == "sweep":
            nconf = len(self.param("configs", ()))
            return f"{self.workload}@sweep[{nconf}]"
        return f"{self.workload}@{self.config.name}" + (
            f"x{self.ranks}" if self.ranks > 1 else "")

    def describe(self) -> dict[str, Any]:
        """Canonical identity tree: everything the result depends on.

        The cache key is a hash of exactly this tree, so two jobs collide
        iff they would produce the same payload — the full ``SoCConfig``
        contents are included, not just the config *name*, which is what
        keeps swept/composed variants (``Rocket1[4]``) distinct.
        """
        params: dict[str, Any] = {}
        for k, v in self.params:
            if (isinstance(v, tuple) and v
                    and all(dataclasses.is_dataclass(c) for c in v)):
                # sweep config tuples: hash their full contents, not the
                # (unserializable, repr-unstable) dataclass objects
                v = [config_tree(c) for c in v]
            params[k] = v
        return {
            "kind": self.kind,
            "workload": self.workload,
            "seed": self.seed,
            "ranks": self.ranks,
            "params": params,
            "config": config_tree(self.config),
        }


@dataclass
class JobResult:
    """Outcome of one job as the farm saw it (payload + provenance)."""

    job: Job
    index: int                  #: position in the submitted job list
    status: str = "ok"          #: "ok" | "failed" | "interrupted"
    payload: dict[str, Any] | None = None
    attempts: int = 0           #: executions performed (0 for a cache hit)
    from_cache: bool = False
    error: str | None = None    #: last error when status != "ok"
    elapsed_s: float = 0.0      #: host wall-clock of the final attempt
    #: final successful attempt resumed from a mid-run checkpoint
    resumed: bool = False
    #: deploy-manager host slot that ran the final attempt (provenance —
    #: payloads are bit-identical regardless of which host produced them)
    host: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __str__(self) -> str:
        if not self.ok:
            return f"[{self.job.label}] FAILED: {self.error}"
        src = "cache" if self.from_cache else f"{self.attempts} attempt(s)"
        cyc = self.payload.get("cycles") if self.payload else None
        body = f"{cyc:,} cycles" if cyc is not None else "ok"
        return f"[{self.job.label}] {body} ({src})"


# -- runners ----------------------------------------------------------------


def _checkpoint_file(job: Job, ctx: ExecContext) -> Path | None:
    if ctx.checkpoint_dir is None:
        return None
    from .cache import cache_key
    return Path(ctx.checkpoint_dir) / f"{cache_key(job)}.ckpt"


def _job_instrument(job: Job, ctx: ExecContext):
    """Build the per-job Instrument an ExecContext asks for (or None).

    Streams land at ``<instrument_dir>/<label>.jsonl`` so an operator
    (or ``repro tail``) can follow a job while it is still running.
    Instrumentation is host-side provenance: it never changes the
    payload, which stays a pure function of the job.
    """
    if ctx.instrument_spec is None:
        return None
    from ..instrument import Instrument, InstrumentSpec
    spec = InstrumentSpec.from_dict(ctx.instrument_spec)
    path = None
    if ctx.instrument_dir is not None:
        path = Path(ctx.instrument_dir) / f"{job.label}.jsonl"
        ctx.meta["stream"] = str(path)
    return Instrument(spec, path=str(path) if path is not None else None)


def _run_kernel_job(job: Job, attempt: int, ctx: ExecContext) -> dict[str, Any]:
    """Run one kernel job, sealing any attached instrument stream on the
    way out (success or failure — a torn stream should only ever mean a
    killed worker)."""
    instrument = _job_instrument(job, ctx)
    try:
        return _run_kernel_job_inner(job, attempt, ctx, instrument)
    finally:
        if instrument is not None:
            instrument.seal()


def _run_kernel_job_inner(job: Job, attempt: int, ctx: ExecContext,
                          instrument=None) -> dict[str, Any]:
    """Replicate :func:`repro.workloads.microbench.run_kernel` exactly
    (same scale clamp, same warmup pass) and add the telemetry capture
    that `repro stats` performs, so one farmed run yields cycles,
    counters, and the CPI stack in a single simulation.

    Jobs carrying a ``quantum`` param run the measured pass through the
    lockstep path; with ``ctx.checkpoint_dir`` set, that pass saves a
    checkpoint every ``ctx.checkpoint_every`` quanta and a later attempt
    resumes from it bit-identically instead of restarting from zero.
    """
    from ..accel import memo
    from ..soc.system import System
    from ..telemetry import StatsRegistry, Snapshot, cpi_stack
    from ..workloads.microbench import get_kernel

    kern = get_kernel(job.workload)
    if kern.spec.broken:
        raise RuntimeError(f"kernel {kern.spec.name} is marked broken")
    cfg = job.config
    scale = max(float(job.param("scale", 1.0)), kern.min_harness_scale)
    trace = memo.shared_trace(
        job.workload, scale, job.seed,
        lambda: kern.build(scale=scale, seed=job.seed))
    system = System(cfg)
    if instrument is not None:
        system.attach_instrument(instrument)
    registry = StatsRegistry(system)
    quantum = job.param("quantum")
    mkey = None

    if quantum is None:
        do_warmup = bool(job.param("warmup", True) and kern.needs_warmup)
        # fresh-system serial runs are a pure function of (trace, config):
        # memoize the whole payload (in-process workers and repeated
        # sweep points skip the simulation entirely) — unless the
        # operator asked for a stream, which only a real run can produce
        if (job.cacheable and ctx.fault is None
                and instrument is None and memo.memo_enabled()):
            mkey = memo.memo_key(trace, cfg, system.uncore,
                                 extra=("farm_kernel", do_warmup))
            hit = memo.memo_get(mkey)
            if hit is not None:
                # the key is content-addressed (trace + config digests),
                # so seed-invariant kernels collide across seeds: the
                # simulation outputs transfer, the job-identity metadata
                # does not — re-stamp it for *this* job
                hit["workload"] = kern.spec.name
                hit["seed"] = job.seed
                hit["scale"] = scale
                return hit
        if do_warmup:
            system.run(trace)
        base = registry.snapshot()
        result = system.run(trace)
    else:
        quantum = int(quantum)
        chunk = int(job.param("chunk", max(1, quantum // 2)))
        ckpt_file = _checkpoint_file(job, ctx)
        run = base = None
        if ckpt_file is not None and ckpt_file.exists():
            from ..reliability.checkpoint import CheckpointError, SimCheckpoint
            try:
                ckpt = SimCheckpoint.load(ckpt_file)
                run = system.restore(ckpt, [trace])
                base = Snapshot(ckpt.extras["baseline"])
                ctx.meta["resumed"] = True
            except (CheckpointError, KeyError):
                run = base = None  # unusable checkpoint: start over
        if run is None:
            if job.param("warmup", True) and kern.needs_warmup:
                system.run(trace)
            base = registry.snapshot()
            run = system.start_parallel([trace], quantum=quantum, chunk=chunk)
        fault = ctx.fault
        kill_after = (int(fault.param("after"))
                      if (fault is not None and fault.kind == "kill"
                          and fault.param("after") is not None) else None)
        while True:
            alive = run.step()
            if (ckpt_file is not None and run.quanta > 0
                    and run.quanta % ctx.checkpoint_every == 0):
                run.checkpoint(extras={"baseline": base.data}).save(ckpt_file)
                ctx.meta["checkpoints"] = ctx.meta.get("checkpoints", 0) + 1
            if kill_after is not None and run.quanta >= kill_after:
                from ..reliability.faults import apply_worker_fault
                apply_worker_fault(fault, in_process=ctx.in_process)
            if not alive:
                break
        result = run.results()[0]
        if ckpt_file is not None:
            try:
                ckpt_file.unlink()
            except OSError:
                pass

    payload = kernel_payload(cfg, kern, job.seed, scale, registry, base,
                             result, system, quantum=quantum)
    if mkey is not None:
        memo.memo_put(mkey, payload)
    return payload


def _simulation_counters(delta) -> dict[str, Any]:
    """*delta*'s data minus its ``accel`` records (host bookkeeping)."""
    for rec in (delta.data, *delta.data.get("tiles", [])):
        rec.pop("accel", None)
    return delta.data


def kernel_payload(cfg, kern, seed: int, scale: float, registry, base,
                   result, system, quantum: int | None = None) -> dict[str, Any]:
    """Assemble one kernel run's payload from its measured pass.

    The single payload constructor shared by the serial job runner and
    the batched sweep driver (:func:`repro.accel.batch.batched_sweep`) —
    sharing the code is part of what keeps batched sweep points
    bit-identical to serial ones.
    """
    from ..telemetry import cpi_stack

    delta = registry.delta(base)
    _simulation_counters(delta)
    stack = cpi_stack(system, result, delta)
    payload: dict[str, Any] = {
        "kind": "kernel",
        "config": cfg.name,
        "workload": kern.spec.name,
        "seed": seed,
        "scale": scale,
        "core_ghz": cfg.core_ghz,
        "cycles": int(result.cycles),
        "instructions": int(result.instructions),
        "seconds": result.cycles / (cfg.core_ghz * 1e9),
        "branches": int(result.branches),
        "mispredicts": int(result.mispredicts),
        "l1d_misses": int(result.l1d_misses),
        "l1i_misses": int(result.l1i_misses),
        "stalls": {k: int(v) for k, v in sorted(result.stalls.items())},
        "telemetry": delta.data,
        "cpi": [stack.to_dict()],
    }
    if quantum is not None:
        payload["quantum"] = quantum
    return payload


#: schema stamp for on-disk sweep checkpoints
_SWEEP_CKPT_SCHEMA = 1


def _run_sweep_job(job: Job, attempt: int, ctx: ExecContext) -> dict[str, Any]:
    """Run one config-batched sweep, checkpointing per completed config.

    The checkpoint is a JSON file of finished per-config payloads keyed
    by the job's cache key; a retried attempt loads it, skips the
    completed configs, and batches only the remainder — bit-identically,
    because each config's simulation is independent (fresh system per
    config) and payloads are pure JSON trees.  Configs complete in input
    order, so a ``kill`` fault with an ``after=N`` parameter fires once
    the first N not-yet-checkpointed configs are done, modelling a
    worker crash mid-sweep.
    """
    import json

    from ..accel.batch import batched_sweep
    from .cache import cache_key

    configs = job.param("configs")
    key = cache_key(job)
    ckpt_file = _checkpoint_file(job, ctx)
    done: dict[str, dict[str, Any]] = {}
    if ckpt_file is not None and ckpt_file.exists():
        try:
            saved = json.loads(ckpt_file.read_text())
            if (saved.get("schema") == _SWEEP_CKPT_SCHEMA
                    and saved.get("key") == key):
                done = saved["points"]
                ctx.meta["resumed"] = True
        except (OSError, ValueError, KeyError):
            done = {}  # unusable checkpoint: start over

    fault = ctx.fault
    kill_after = (int(fault.param("after"))
                  if (fault is not None and fault.kind == "kill"
                      and fault.param("after") is not None) else None)
    completed = 0

    def on_point(name: str, payload: dict[str, Any]) -> None:
        nonlocal completed
        done[name] = payload
        completed += 1
        if ckpt_file is not None and completed % ctx.checkpoint_every == 0:
            atomic_write(ckpt_file, json.dumps(
                {"schema": _SWEEP_CKPT_SCHEMA, "key": key, "points": done}))
            ctx.meta["checkpoints"] = ctx.meta.get("checkpoints", 0) + 1
        if kill_after is not None and completed >= kill_after:
            from ..reliability.faults import apply_worker_fault
            apply_worker_fault(fault, in_process=ctx.in_process)

    # on_point fills `done` as configs complete — in input order, memo
    # hits included — so a checkpoint always holds the leading configs
    # of this attempt; the returned points are those same payloads.
    done.update(batched_sweep(configs, job.workload,
                              scale=float(job.param("scale", 1.0)),
                              seed=job.seed,
                              warmup=bool(job.param("warmup", True)),
                              on_point=on_point, skip=tuple(done)))
    if ckpt_file is not None:
        try:
            ckpt_file.unlink()
        except OSError:
            pass
    return {
        "kind": "sweep",
        "workload": job.workload,
        "seed": job.seed,
        "scale": float(job.param("scale", 1.0)),
        "configs": [cfg.name for cfg in configs],
        "points": {cfg.name: done[cfg.name] for cfg in configs},
    }


def _run_npb_job(job: Job, attempt: int, ctx: ExecContext) -> dict[str, Any]:
    from ..workloads.npb import NPB_RUNNERS

    res = NPB_RUNNERS[job.workload](job.config, nranks=job.ranks,
                                    cls=job.param("cls", "A"))
    return {
        "kind": "npb",
        "config": job.config.name,
        "workload": res.benchmark,
        "cls": res.cls,
        "ranks": res.nranks,
        "verified": bool(res.verified),
        "core_ghz": res.core_ghz,
        "cycles": int(res.cycles),
        "seconds": res.cycles / (res.core_ghz * 1e9),
        "rank_results": [
            {
                "rank": r.rank,
                "cycles": int(r.cycles),
                "instructions": int(r.instructions),
                "compute_cycles": int(r.compute_cycles),
                "comm_cycles": int(r.comm_cycles),
                "messages_sent": int(r.messages_sent),
                "bytes_sent": int(r.bytes_sent),
            }
            for r in res.ranks
        ],
    }


def _run_checkprog_job(job: Job, attempt: int,
                       ctx: ExecContext) -> dict[str, Any]:
    """Assemble, interpret, and time one differential-checking program.

    The payload is the complete observable outcome — architectural
    register files (FP as raw bit patterns), a memory digest, and the
    timing/telemetry summary — so ``repro.check``'s farm oracle can
    require bit-identity between serial and farmed execution.
    """
    import hashlib
    import struct as _struct

    from ..isa.assembler import assemble
    from ..isa.interp import Interpreter
    from ..soc.system import System
    from ..telemetry import StatsRegistry

    base = int(job.param("base", 0x1_0000))
    words = assemble(str(job.param("source")), base=base)
    interp = Interpreter(words, base=base, trace=True)
    trace = interp.run(int(job.param("fuel", 200_000)))

    mem_digest = hashlib.sha256()
    for pno in sorted(interp.mem._pages):
        mem_digest.update(pno.to_bytes(16, "little"))
        mem_digest.update(bytes(interp.mem._pages[pno]))

    system = System(job.config)
    registry = StatsRegistry(system)
    snap_base = registry.snapshot()
    result = system.run(trace)
    telemetry = _simulation_counters(registry.delta(snap_base))

    def _fbits(v: float) -> int:
        return _struct.unpack("<Q", _struct.pack("<d", v))[0]

    return {
        "kind": "checkprog",
        "config": job.config.name,
        "workload": job.workload,
        "retired": int(interp.retired),
        "xregs": [int(r) for r in interp.regs],
        "fregs": [_fbits(f) for f in interp.fregs],
        "mem_sha256": mem_digest.hexdigest(),
        "cycles": int(result.cycles),
        "instructions": int(result.instructions),
        "stalls": {k: int(v) for k, v in sorted(result.stalls.items())},
        "telemetry": telemetry,
    }


def _run_selftest_job(job: Job, attempt: int, ctx: ExecContext) -> dict[str, Any]:
    mode = job.workload
    if mode == "raise":
        raise RuntimeError("selftest: injected failure")
    if mode == "interrupt":
        # stands in for the operator's Ctrl-C / SIGTERM in shutdown tests
        raise KeyboardInterrupt("selftest: injected interrupt")
    if mode == "hang":
        time.sleep(float(job.param("sleep_s", 60.0)))
    elif mode == "flaky" and attempt <= int(job.param("fail_times", 1)):
        raise RuntimeError(f"selftest: injected failure (attempt {attempt})")
    elif mode not in ("ok", "flaky"):
        raise ValueError(f"unknown selftest mode {mode!r}")
    return {"kind": "selftest", "mode": mode, "value": job.param("value", 42)}


#: job kind -> runner; the registry makes kinds pluggable without the
#: scheduler knowing workload specifics
JOB_KINDS: dict[str, Callable[[Job, int, ExecContext], dict[str, Any]]] = {
    "kernel": _run_kernel_job,
    "sweep": _run_sweep_job,
    "npb": _run_npb_job,
    "selftest": _run_selftest_job,
    "checkprog": _run_checkprog_job,
}


def execute_job_meta(job: Job, attempt: int = 1,
                     ctx: ExecContext | None = None,
                     ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one job; returns ``(payload, meta)``.

    The payload depends only on the job (the determinism contract); meta
    is host-side provenance — whether the attempt resumed from a
    checkpoint, how many checkpoints it wrote.  Worker faults without an
    ``after=`` parameter fire here, before the workload starts.
    """
    ctx = ctx if ctx is not None else ExecContext()
    fault = ctx.fault
    if fault is not None and (fault.kind in ("hang", "error", "host-stall")
                              or (fault.kind == "kill"
                                  and fault.param("after") is None)):
        from ..reliability.faults import apply_worker_fault
        apply_worker_fault(fault, in_process=ctx.in_process)
    payload = JOB_KINDS[job.kind](job, attempt, ctx)
    return payload, dict(ctx.meta)


def execute_job(job: Job, attempt: int = 1,
                ctx: ExecContext | None = None) -> dict[str, Any]:
    """Run one job to completion in the calling process.

    The single execution path shared by serial mode and every pool
    worker; *attempt* is 1-based and only consulted by fault-injection
    jobs (real workloads must not depend on it, or determinism breaks).
    """
    return execute_job_meta(job, attempt=attempt, ctx=ctx)[0]
