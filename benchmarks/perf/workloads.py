"""The six workloads: what one pass runs, checks and attributes.

Each workload drives only public ``repro`` entry points and times them
from outside.  ``run_pass`` returns host times taken around the calls
(output checks sit between the timed regions, never inside them) and
keeps the outputs; ``check`` inspects them afterwards; ``layers`` turns
the traced pass's spans, plus a few direct probes, into per-layer
numbers.  Importing this module imports ``repro``: the child interpreter
does so inside its measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.accel import memo
from repro.accel.batch import batched_sweep
from repro.accel.compile import (compiled_trace, trace_from_payload,
                                 trace_payload)
from repro.accel.stats import global_stats, reset_global_stats
from repro.analysis.data import (PAPER_LAMMPS_LJ_RUNTIMES,
                                 paper_relative_speedup)
from repro.analysis.speedup import relative_speedup
from repro.analysis.tuning import QUICK_KERNELS
from repro.farm import Job, ResultCache, RunFarm, execute_job
from repro.farm.cache import cache_key
from repro.farm.store import SharedResultStore
from repro.isa.serialize import load_trace, save_trace
from repro.serve import FarmServer, ServeClient, ServeError
from repro.soc.presets import ALL_CONFIGS, get_config
from repro.soc.system import System
from repro.telemetry import Snapshot, StatsRegistry, cpi_stack
from repro.workloads.lammps.workload import run_lammps
from repro.workloads.microbench import (get_kernel, run_kernel,
                                        runnable_kernels)
from repro.workloads.npb.cg import run_cg
from repro.workloads.npb.mg import run_mg

from spans import OFF, Recorder, Regions, by_name, self_times

__all__ = ["PassOut", "Workload", "REGISTRY", "sim_digest"]

NPROC = os.cpu_count() or 1
#: no workload uses more worker processes or client threads than cores
WORKERS = min(2, NPROC)

HW_BPI, SIM_BPI = "BananaPi-K1", "BananaPiSim"
HW_MILKV, SIM_MILKV = "MILKV-SG2042", "MILKVSim"
EXECUTION_KERNELS = ("EI", "EF", "ED1", "EM1", "EM5")
#: Table 1 category -> metric suffix
CATEGORY = {"Control Flow": "control", "Data": "data",
            "Execution": "execution", "Cache": "cache", "Memory": "memory"}


@dataclass
class PassOut:
    """What one pass measured and produced."""

    #: the pass's timed regions (see :class:`spans.Regions`); the sum of
    #: ``regions.ref`` is this pass's ``wall_s``.  The driver takes each
    #: region's median across passes, so a burst of host noise spoils one
    #: sample of one region, not a whole pass
    regions: Regions
    work: float                     #: units behind ``work_per_s``
    op_ms: list[float]              #: per-op reference ms behind op_p50/p95
    #: (op id, cycles, instructions, stalls) per op: the simulated outcome
    sim: list[tuple]
    #: whatever ``check``/``layers`` need; only the first pass keeps it
    outputs: Any = None
    #: counters read when the pass ended
    counters: dict[str, float] = field(default_factory=dict)
    #: timed regions beyond ``wall_s`` that the work also took
    more_regions: Regions | None = None

    def seconds(self, which: str) -> dict[str, float]:
        """Every timed region of the pass, in ``raw`` or ``ref`` seconds."""
        more = getattr(self.more_regions, which) if self.more_regions else {}
        return {**getattr(self.regions, which), **more}


def sim_digest(sim: list[tuple]) -> str:
    """sha256 over the sorted simulated outcomes of one pass."""
    blob = json.dumps(sorted(sim), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _stalls(stalls: dict[str, int]) -> list:
    return sorted((k, int(v)) for k, v in stalls.items())


def _payload_sim(op: str, payload: dict[str, Any]) -> tuple:
    return (op, payload["cycles"], payload["instructions"],
            _stalls(payload["stalls"]))


def _check_payload(op: str, payload: dict[str, Any] | None,
                   uops: int | None = None) -> list[str]:
    """Failures of one kernel payload (empty list: the op passed)."""
    if payload is None:
        return [f"{op}: no payload"]
    bad = []
    if payload["cycles"] <= 0:
        bad.append(f"{op}: cycles {payload['cycles']} <= 0")
    if uops is not None and payload["instructions"] != uops:
        bad.append(f"{op}: retired {payload['instructions']} != "
                   f"trace length {uops}")
    for stack in payload.get("cpi", ()):
        total = sum(stack["buckets"].values())
        if total != stack["cycles"]:
            bad.append(f"{op}: CPI buckets sum {total} != "
                       f"cycles {stack['cycles']}")
    return bad


def _mem_counts(flat: dict[str, Any]) -> dict[str, int]:
    """Fold one flattened telemetry delta into the ``mem.*`` counts."""
    out = dict.fromkeys(("l1d_accesses", "l1d_misses", "l1i_accesses",
                         "l2_accesses", "l2_misses", "dram_reads",
                         "dtlb_misses", "bus_transfers"), 0)
    for key, v in flat.items():
        if not isinstance(v, int) or isinstance(v, bool):
            continue
        parts = key.split(".")
        if parts[0] == "tiles" and len(parts) == 4:
            name = f"{parts[2]}_{parts[3]}"
        elif parts[0] == "uncore" and parts[1] == "dram":
            name = f"dram_{parts[-1]}"
        elif parts[0] == "uncore" and len(parts) == 3:
            name = f"{parts[1]}_{parts[2]}"
        else:
            continue
        if name in out:
            out[name] += v
    return out


def _add_counts(total: dict[str, int], more: dict[str, int]) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


def _payload_counts(payloads: list[dict[str, Any]]) -> dict[str, float]:
    """``mem.*`` and ``core.*`` counts summed over kernel payloads."""
    mem: dict[str, int] = {}
    for p in payloads:
        _add_counts(mem, _mem_counts(Snapshot(p["telemetry"]).flat()))
    m: dict[str, float] = {f"mem.{k}": v for k, v in mem.items()
                           if k != "l1i_accesses"}
    m["core.branches"] = sum(p["branches"] for p in payloads)
    m["core.mispredicts"] = sum(p["mispredicts"] for p in payloads)
    return m


def _err_log2(rel: dict[str, float]) -> float:
    """``fidelity``'s score: mean abs log2 of per-kernel relative speedup."""
    return sum(abs(math.log2(v)) for v in rel.values()) / len(rel) if rel else 0.0


def _accel_counters() -> dict[str, float]:
    g = global_stats()
    return {
        "accel.memo.trace_cache_hits": g.trace_cache_hits,
        "accel.memo.trace_cache_misses": g.trace_cache_misses,
        "accel.memo.result_hits": g.memo_hits,
        "accel.memo.result_misses": g.memo_misses,
        "accel.compile.store_hits": g.compile_store_hits,
        "accel.compile.store_misses": g.compile_store_misses,
        "accel.fastpath_coverage": g.coverage,
        "accel.spans": g.spans,
        "accel.spans_completed": g.spans_completed,
    }


def _cold() -> None:
    """Start a timed pass from nothing: no cache carries work over."""
    memo.clear_caches()
    reset_global_stats()


def _totals(rec: Recorder) -> dict[str, float]:
    """Summed self time (reference seconds) per span name."""
    return {name: sum(selfs) for name, selfs in by_name(rec.spans).items()}


def _ms(regions: Regions) -> list[float]:
    return [s * 1e3 for s in regions.ref.values()]


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


class Workload:
    """One workload.  ``setup`` runs inside the measured set-up time."""

    name = ""
    #: closed/open loop and client count, stated in the record
    loop = "closed loop, 1 client: each op starts when the last ends"

    def __init__(self, seed: int, quick: bool, work: pathlib.Path) -> None:
        self.seed = seed
        self.quick = quick
        self.work = work

    def setup(self) -> None:
        """Build configs and inputs; start whatever must be running."""

    def params(self) -> dict[str, Any]:
        """Input sizes, for the record."""
        return {}

    def run_pass(self, rec: Recorder) -> PassOut:
        raise NotImplementedError

    def check(self, out: PassOut) -> tuple[int, list[str]]:
        """``(attempted ops, failure messages)`` for one pass's outputs."""
        raise NotImplementedError

    def exact(self, out: PassOut) -> dict[str, float]:
        """Simulated statistics beyond digest/cycles/uops (error metrics)."""
        return {}

    def layers(self, rec: Recorder, out: PassOut) -> dict[str, float]:
        """Per-layer metrics from the traced pass *out* recorded in *rec*."""
        return {}


# -- trace_pipeline ---------------------------------------------------------


class TracePipeline(Workload):
    name = "trace_pipeline"

    def setup(self) -> None:
        self.kernels = runnable_kernels()
        self.scale = 0.1 if self.quick else 1.0
        self.path = self.work / "trace.npz"

    def params(self) -> dict[str, Any]:
        return {"kernels": len(self.kernels), "scale": self.scale,
                "seeds": [self.seed]}

    def run_pass(self, rec: Recorder) -> PassOut:
        _cold()
        ops, regions = [], Regions(rec)
        for kern in self.kernels:
            name = kern.spec.name
            with regions.time(name):
                with rec.span("workloads.build", name):
                    trace = kern.build(scale=self.scale, seed=self.seed)
                with rec.span("accel.memo.digest", name):
                    digest = memo.trace_digest(trace)
                with rec.span("accel.compile.compile", name):
                    ct = compiled_trace(trace)
                with rec.span("accel.compile.payload", name):
                    back = trace_from_payload(trace_payload(trace))
                with rec.span("isa.serialize", name):
                    save_trace(trace, self.path)
                    loaded = load_trace(self.path)
            ops.append({
                "op": name, "uops": len(trace), "compiled": ct.n,
                "digest": digest,
                # trace_from_payload returns None on a digest mismatch
                "payload_digest": (memo.trace_digest(back)
                                   if back is not None else None),
                "npz_digest": memo.trace_digest(loaded),
                "bytes": self.path.stat().st_size,
            })
        return PassOut(regions, sum(o["uops"] for o in ops), _ms(regions),
                       [(o["op"], 0, o["uops"], o["digest"]) for o in ops],
                       ops)

    def check(self, out: PassOut) -> tuple[int, list[str]]:
        bad = []
        for o in out.outputs:
            if o["uops"] <= 0 or o["compiled"] != o["uops"]:
                bad.append(f"{o['op']}: compiled {o['compiled']} uops of "
                           f"{o['uops']}")
            elif o["payload_digest"] != o["digest"]:
                bad.append(f"{o['op']}: payload round trip changed the trace")
            elif o["npz_digest"] != o["digest"]:
                bad.append(f"{o['op']}: npz round trip changed the trace")
        return len(out.outputs), bad

    def layers(self, rec: Recorder, out: PassOut) -> dict[str, float]:
        t = _totals(rec)
        build, compile_ = t["workloads.build"], t["accel.compile.compile"]
        uops = sum(o["uops"] for o in out.outputs)
        return {
            "workloads.build_s": build,
            "workloads.build_uops_per_s": uops / build,
            "accel.memo.digest_s": t["accel.memo.digest"],
            "accel.compile.compile_s": compile_,
            "accel.compile.uops_per_s": uops / compile_,
            "accel.compile.payload_s": t["accel.compile.payload"],
            "isa.serialize_s": t["isa.serialize"],
            "isa.trace_bytes": sum(o["bytes"] for o in out.outputs),
        }


# -- suite_cold -------------------------------------------------------------


class SuiteCold(Workload):
    name = "suite_cold"

    def setup(self) -> None:
        self.kernels = runnable_kernels()
        self.scale = 0.1 if self.quick else 0.2
        self.configs = [get_config(HW_BPI), get_config(SIM_BPI)]

    def params(self) -> dict[str, Any]:
        return {"kernels": len(self.kernels), "scale": self.scale,
                "configs": [c.name for c in self.configs], "accel": "on",
                "caches": "cleared per kernel; target caches start empty "
                          "for needs_warmup=False kernels, else warmed by "
                          "one identical pass"}

    def run_pass(self, rec: Recorder) -> PassOut:
        reset_global_stats()
        ops, regions = [], Regions(rec)
        for kern in self.kernels:
            memo.clear_caches()
            for cfg in self.configs:
                op = f"{kern.spec.name}@{cfg.name}"
                with regions.time(op):
                    o = (self._run_kernel_by_layer(rec, op, cfg, kern)
                         if rec.enabled else self._run_kernel(cfg, kern))
                o.update(op=op, kernel=kern.spec.name, config=cfg.name,
                         category=kern.spec.category)
                ops.append(o)
        uops = sum(o["result"].instructions for o in ops)
        sim = [(o["op"], int(o["result"].cycles), o["result"].instructions,
                _stalls(o["result"].stalls)) for o in ops]
        return PassOut(regions, uops, _ms(regions), sim, ops,
                       _accel_counters())

    def _run_kernel(self, cfg, kern) -> dict:
        run = run_kernel(cfg, kern, scale=self.scale, seed=self.seed)
        return {"result": run.result, "seconds": run.seconds,
                # None when the run came from the result memo
                "uops": run.accel["static"]["uops"] if run.accel else None}

    def _run_kernel_by_layer(self, rec: Recorder, op: str, cfg, kern) -> dict:
        """What ``run_kernel`` does, one span per layer it crosses, plus
        the telemetry window ``repro stats`` takes around the measured
        pass.  ``check`` holds its outcome equal to ``run_kernel``'s."""
        scale = max(self.scale, kern.min_harness_scale)
        with rec.span("workloads.build", op):
            trace = memo.shared_trace(
                kern.spec.name, scale, self.seed,
                lambda: kern.build(scale=scale, seed=self.seed))
        with rec.span("soc.build", op):
            system = System(cfg)
        with rec.span("accel.memo.digest", op):
            key = memo.memo_key(trace, cfg, system.uncore,
                                extra=("run_kernel", kern.needs_warmup))
            hit = memo.memo_get(key)
        if hit is not None:
            return {"result": hit, "uops": None,
                    "seconds": hit.cycles / (cfg.core_ghz * 1e9)}
        registry = StatsRegistry(system)
        if kern.needs_warmup:
            with rec.span("soc.warm", op):
                system.run(trace)
        with rec.span("telemetry.snapshot", op):
            base = registry.snapshot()
        with rec.span("soc.run", op):
            result = system.run(trace)
        memo.memo_put(key, result)
        with rec.span("telemetry.snapshot", op):
            delta = registry.delta(base)
            stack = cpi_stack(system, result, delta)
        return {"result": result, "uops": len(trace),
                "seconds": system.seconds(result),
                "mem": _mem_counts(delta.flat()),
                "cpi": stack.to_dict()}

    def check(self, out: PassOut) -> tuple[int, list[str]]:
        bad = []
        for o in out.outputs:
            r = o["result"]
            if o["uops"] is None:
                bad.append(f"{o['op']}: served from the result memo, "
                           f"not simulated")
            elif r.cycles <= 0 or r.instructions != o["uops"]:
                bad.append(f"{o['op']}: cycles {r.cycles}, retired "
                           f"{r.instructions} of {o['uops']} uops")
            elif "cpi" in o and (sum(o["cpi"]["buckets"].values())
                                 != r.cycles):
                bad.append(f"{o['op']}: CPI buckets do not sum to cycles")
        return len(out.outputs), bad

    def _rel(self, out: PassOut) -> dict[str, float]:
        secs = {(o["kernel"], o["config"]): o["seconds"] for o in out.outputs}
        return {k.spec.name: relative_speedup(secs[k.spec.name, HW_BPI],
                                              secs[k.spec.name, SIM_BPI])
                for k in self.kernels}

    def exact(self, out: PassOut) -> dict[str, float]:
        rel = self._rel(out)
        tuned = {k: v for k, v in rel.items() if k in QUICK_KERNELS}
        held = {k: v for k, v in rel.items() if k not in QUICK_KERNELS}
        return {"analysis.model_err_log2": _err_log2(rel),
                "analysis.err_tuned_log2": _err_log2(tuned),
                "analysis.err_heldout_log2": _err_log2(held)}

    def layers(self, rec: Recorder, out: PassOut) -> dict[str, float]:
        selfs = self_times(rec.spans)
        t = _totals(rec)
        run_by_op = {s.op: selfs[id(s)] for s in rec.spans
                     if s.name == "soc.run"}
        ops = out.outputs
        mem: dict[str, int] = {}
        for o in ops:
            _add_counts(mem, o.get("mem", {}))

        def us_per_uop(keep) -> float:
            sel = [o for o in ops if keep(o)]
            uops = sum(o["result"].instructions for o in sel)
            return (sum(run_by_op.get(o["op"], 0.0) for o in sel)
                    / uops * 1e6) if uops else 0.0

        memsys = [o for o in ops if o["category"] in ("Cache", "Memory")]
        accesses = sum(o.get("mem", {}).get("l1d_accesses", 0)
                       + o.get("mem", {}).get("l1i_accesses", 0)
                       for o in memsys)
        snaps = by_name(rec.spans).get("telemetry.snapshot", [])
        m = {
            "workloads.build_s": t.get("workloads.build", 0.0),
            "accel.memo.digest_s": t.get("accel.memo.digest", 0.0),
            "soc.build_s": t.get("soc.build", 0.0),
            "soc.warm_s": t.get("soc.warm", 0.0),
            "soc.run_s": t.get("soc.run", 0.0),
            "soc.run_us_per_uop.inorder": us_per_uop(lambda o: True),
            "mem.host_us_per_access": (
                sum(run_by_op.get(o["op"], 0.0) for o in memsys)
                / accesses * 1e6) if accesses else 0.0,
            "core.branches": sum(o["result"].branches for o in ops),
            "core.mispredicts": sum(o["result"].mispredicts for o in ops),
            "core.host_us_per_uop.execution": us_per_uop(
                lambda o: o["kernel"] in EXECUTION_KERNELS),
            # two snapshot spans bracket each op's measured pass
            "telemetry.snapshot_s": 2 * _median(snaps),
        }
        for cat, suffix in CATEGORY.items():
            m[f"soc.run_us_per_uop.{suffix}"] = us_per_uop(
                lambda o, cat=cat: o["category"] == cat)
        for k, v in mem.items():
            if k != "l1i_accesses":
                m[f"mem.{k}"] = v
        build = t.get("workloads.build", 0.0)
        if build:
            m["workloads.build_uops_per_s"] = sum(
                o["uops"] or 0 for o in ops[::len(self.configs)]) / build
        m.update(out.counters)
        return m


# -- sweep_batched ----------------------------------------------------------


class SweepBatched(Workload):
    name = "sweep_batched"
    #: QUICK_KERNELS, one or two per Table 1 category, MIP left out (its
    #: footprint clamp pins it at scale 0.7 whatever the sweep asks for)
    KERNELS = ("Cca", "CS1", "DPT", "EI", "MD", "MM")

    def setup(self) -> None:
        self.scale = 0.1 if self.quick else 0.3
        self.configs = [ALL_CONFIGS[n] for n in sorted(ALL_CONFIGS)]
        self.inorder = [c for c in self.configs if c.core_type != "ooo"]
        self.ooo = [c for c in self.configs if c.core_type == "ooo"]
        self.jobs = {k: Job.sweep(self.configs, k, scale=self.scale,
                                  seed=self.seed) for k in self.KERNELS}

    def params(self) -> dict[str, Any]:
        return {"kernels": list(self.KERNELS), "scale": self.scale,
                "configs": [c.name for c in self.configs],
                "ooo_configs": [c.name for c in self.ooo]}

    def _build(self, kname: str):
        kern = get_kernel(kname)
        scale = max(self.scale, kern.min_harness_scale)
        return scale, lambda: kern.build(scale=scale, seed=self.seed)

    def run_pass(self, rec: Recorder) -> PassOut:
        _cold()
        payloads, regions, uops = {}, Regions(rec), {}
        for kname, job in self.jobs.items():
            with regions.time(kname):
                if rec.enabled:
                    # the sweep job builds and compiles through these same
                    # caches: hoisted here so each gets its own span, and
                    # the job then finds them done
                    scale, build = self._build(kname)
                    with rec.span("workloads.build", kname):
                        trace = memo.shared_trace(kname, scale, self.seed,
                                                  build)
                    with rec.span("accel.memo.digest", kname):
                        memo.trace_digest(trace)
                    with rec.span("accel.compile.compile", kname):
                        compiled_trace(trace)
                    uops[kname] = len(trace)
                with rec.span("accel.batch.sweep", kname):
                    payloads[kname] = execute_job(job)
        points = {f"{k}@{c}": pt for k, p in payloads.items()
                  for c, pt in p["points"].items()}
        work = sum(pt["instructions"] for pt in points.values())
        return PassOut(regions, work, _ms(regions),
                       [_payload_sim(op, pt) for op, pt in points.items()],
                       {"points": points, "uops": uops}, _accel_counters())

    def check(self, out: PassOut) -> tuple[int, list[str]]:
        points = out.outputs["points"]
        bad = []
        for kname in self.KERNELS:
            uops = len(self._build(kname)[1]())
            for cfg in self.configs:
                op = f"{kname}@{cfg.name}"
                bad += _check_payload(op, points.get(op), uops)
        # one seeded point re-run alone must equal its batched payload
        rng = random.Random(self.seed)
        kname, cfg = rng.choice(self.KERNELS), rng.choice(self.configs)
        memo.clear_caches()
        solo = execute_job(Job.kernel(cfg, kname, scale=self.scale,
                                      seed=self.seed))
        if solo != points.get(f"{kname}@{cfg.name}"):
            bad.append(f"{kname}@{cfg.name}: batched point differs from "
                       f"the same point run as Job.kernel")
        return len(points) + 1, bad

    def exact(self, out: PassOut) -> dict[str, float]:
        points = out.outputs["points"]
        rel = {k: relative_speedup(points[f"{k}@{HW_MILKV}"]["seconds"],
                                   points[f"{k}@{SIM_MILKV}"]["seconds"])
               for k in self.KERNELS}
        return {"analysis.model_err_log2": _err_log2(rel)}

    def layers(self, rec: Recorder, out: PassOut) -> dict[str, float]:
        t = _totals(rec)
        uops = out.outputs["uops"]
        total_uops = sum(uops.values())
        m = _payload_counts(list(out.outputs["points"].values()))
        m.update(out.counters)
        m.update({
            "workloads.build_s": t["workloads.build"],
            "workloads.build_uops_per_s": total_uops / t["workloads.build"],
            "accel.memo.digest_s": t["accel.memo.digest"],
            "accel.compile.compile_s": t["accel.compile.compile"],
            "accel.compile.uops_per_s":
                total_uops / t["accel.compile.compile"],
        })

        # the two halves of the sweep, each alone over the same kernels;
        # then config-at-a-time against batched on three seeded kernels
        probe = Regions(OFF)
        for kname in self.KERNELS:
            for half, configs in (("inorder", self.inorder),
                                  ("ooo", self.ooo)):
                memo.clear_caches()
                with probe.time(f"{half}:{kname}"):
                    batched_sweep(configs, kname, scale=self.scale,
                                  seed=self.seed)
        for kname in random.Random(self.seed).sample(self.KERNELS, 3):
            memo.clear_caches()
            with probe.time(f"serial:{kname}"):
                for cfg in self.configs:
                    run_kernel(cfg, kname, scale=self.scale, seed=self.seed)
            memo.clear_caches()
            with probe.time(f"batched:{kname}"):
                batched_sweep(self.configs, kname, scale=self.scale,
                              seed=self.seed)

        def total(prefix: str) -> float:
            return sum(v for k, v in probe.ref.items()
                       if k.startswith(prefix + ":"))

        m["accel.batch.inorder_group_s"] = total("inorder")
        m["accel.batch.ooo_solo_s"] = total("ooo")
        m["soc.run_us_per_uop.inorder"] = (
            total("inorder") / (total_uops * len(self.inorder)) * 1e6)
        m["soc.run_us_per_uop.ooo"] = (
            total("ooo") / (total_uops * len(self.ooo)) * 1e6)
        m["accel.batch.vs_serial_ratio"] = total("serial") / total("batched")

        # what each of the sweep's 10 points per kernel pays for telemetry
        snaps = []
        cfg = get_config(SIM_BPI)
        for kname in self.KERNELS:
            trace = self._build(kname)[1]()
            system = System(cfg)
            registry = StatsRegistry(system)
            t0 = time.perf_counter()
            base = registry.snapshot()
            t1 = time.perf_counter()
            result = system.run(trace)
            t2 = time.perf_counter()
            cpi_stack(system, result, registry.delta(base))
            snaps.append(t1 - t0 + time.perf_counter() - t2)
        m["telemetry.snapshot_s"] = _median(snaps)
        return m


# -- apps_mpi ---------------------------------------------------------------


class AppsMpi(Workload):
    name = "apps_mpi"
    RANKS = (1, 4)

    def setup(self) -> None:
        self.natoms, self.steps = 256, 1
        self.npb_class = "S" if self.quick else "W"
        self.hw, self.sim = get_config(HW_BPI), get_config(SIM_BPI)

    def params(self) -> dict[str, Any]:
        return {"lammps": {"benchmark": "lj", "natoms": self.natoms,
                           "steps": self.steps, "ranks": list(self.RANKS),
                           "configs": [HW_BPI, SIM_BPI]},
                "npb": {"benchmarks": ["cg", "mg"], "class": self.npb_class,
                        "ranks": 4, "config": SIM_BPI},
                "seed": "inputs are fixed: the apps take no seed"}

    def run_pass(self, rec: Recorder) -> PassOut:
        _cold()
        ops, regions = [], Regions(rec)

        def timed(op: str, span: str, call) -> None:
            with regions.time(op), rec.span(span, op):
                res = call()
            ops.append({"op": op, "res": res,
                        "uops": sum(r.instructions for r in res.ranks)})

        for cfg in (self.hw, self.sim):
            for ranks in self.RANKS:
                timed(f"lammps-lj@{cfg.name}x{ranks}", "workloads.app.lammps",
                      lambda: run_lammps(cfg, nranks=ranks, benchmark="lj",
                                         natoms=self.natoms,
                                         steps=self.steps))
        for name, run in (("cg", run_cg), ("mg", run_mg)):
            timed(f"{name}.{self.npb_class}@{SIM_BPI}x4",
                  "workloads.app.npb",
                  lambda: run(self.sim, nranks=4, cls=self.npb_class))
        sim = [(o["op"], int(o["res"].cycles), o["uops"], []) for o in ops]
        return PassOut(regions, sum(o["uops"] for o in ops), _ms(regions),
                       sim, ops)

    def check(self, out: PassOut) -> tuple[int, list[str]]:
        bad = [f"{o['op']}: not verified" if not o["res"].verified
               else f"{o['op']}: cycles {o['res'].cycles} <= 0"
               for o in out.outputs
               if not o["res"].verified or o["res"].cycles <= 0]
        return len(out.outputs), bad

    def exact(self, out: PassOut) -> dict[str, float]:
        secs = {o["op"]: o["res"].seconds for o in out.outputs}
        err = []
        for ranks in self.RANKS:
            measured = relative_speedup(secs[f"lammps-lj@{HW_BPI}x{ranks}"],
                                        secs[f"lammps-lj@{SIM_BPI}x{ranks}"])
            paper = paper_relative_speedup(PAPER_LAMMPS_LJ_RUNTIMES,
                                           "BananaPi", "BananaPiSim", ranks)
            err.append(abs(math.log2(measured / paper)))
        return {"analysis.app_err_log2": sum(err) / len(err)}

    def layers(self, rec: Recorder, out: PassOut) -> dict[str, float]:
        t = _totals(rec)
        by_ranks = {r: sum(out.regions.ref[o["op"]] for o in out.outputs
                           if o["op"].startswith("lammps")
                           and o["op"].endswith(f"x{r}")) for r in self.RANKS}
        # steady state to hold the apps against: long single-tile runs on
        # the same config, measured pass only
        steady = Regions(OFF)
        steady_uops = 0
        for kname in ("EI", "DPT", "MD", "MC", "MM"):
            trace = get_kernel(kname).build(scale=1.0, seed=self.seed)
            system = System(self.sim)
            system.run(trace)
            with steady.time(kname):
                system.run(trace)
            steady_uops += len(trace)
        sim_ops = [o for o in out.outputs if SIM_BPI in o["op"]]
        app_us = (sum(out.regions.ref[o["op"]] for o in sim_ops)
                  / sum(o["uops"] for o in sim_ops))
        return {
            "workloads.app_s.lammps": t["workloads.app.lammps"],
            "workloads.app_s.npb": t["workloads.app.npb"],
            "smpi.run_s.ranks1": by_ranks[1],
            "smpi.run_s.ranks4": by_ranks[4],
            "smpi.ranks4_over_ranks1": by_ranks[4] / by_ranks[1],
            "soc.attach_share":
                app_us / (sum(steady.ref.values()) / steady_uops),
        }


# -- farm_store -------------------------------------------------------------


class FarmStore(Workload):
    name = "farm_store"
    loop = (f"closed loop, 1 client; the farm runs {WORKERS} worker "
            f"processes")
    CONFIGS = (HW_BPI, SIM_BPI, HW_MILKV, SIM_MILKV)

    def setup(self) -> None:
        kernels = [k for k in QUICK_KERNELS if k != "MIP"]
        if self.quick:
            kernels = kernels[:3]
        self.warm_rounds = 5 if self.quick else 15
        self.scale = 0.1
        self.jobs = [Job.kernel(get_config(c), k, scale=self.scale,
                                seed=self.seed)
                     for k in kernels for c in self.CONFIGS]
        self.labels = [j.label for j in self.jobs]
        self.passes = 0

    def params(self) -> dict[str, Any]:
        return {"jobs": len(self.jobs), "scale": self.scale,
                "configs": list(self.CONFIGS), "workers": WORKERS,
                "warm_rounds": self.warm_rounds,
                "stores": ["ResultCache", "SharedResultStore"]}

    def _fresh(self, kind: str) -> pathlib.Path:
        self.passes += 1
        return self.work / f"{kind}-{self.passes}"

    def run_pass(self, rec: Recorder) -> PassOut:
        _cold()
        farms = [RunFarm(workers=WORKERS,
                         cache=ResultCache(self._fresh("cache"))),
                 RunFarm(workers=WORKERS,
                         cache=SharedResultStore(self._fresh("store")))]
        cold, cold_s, warm_s = [], Regions(rec), Regions(rec)
        for farm in farms:
            kind = type(farm.cache).__name__
            with cold_s.time(kind, sampled=True), rec.span("farm.cold", kind):
                cold.append(farm.run(self.jobs))
        cold_stats = [farm.stats for farm in farms]
        warm = []
        for i in range(self.warm_rounds):
            with warm_s.time(f"round{i}"), rec.span("farm.warm", f"round{i}"):
                warm = [farm.run(self.jobs) for farm in farms]
        payloads = [r.payload for r in cold[0]]
        sim = [_payload_sim(label, p) for label, p in
               zip(self.labels, payloads) if p is not None]
        outputs = {"cold": cold, "warm": warm, "cold_stats": cold_stats,
                   "warm_stats": [farm.stats for farm in farms]}
        # one op = one cold job as the farm clocked it, launch to result;
        # a warm round is all file-system weather, too unsteady for a bound
        op_ms = [r.elapsed_s * 1e3 / cold_s.slowdown[type(farm.cache).__name__]
                 for farm, results in zip(farms, cold) for r in results]
        return PassOut(cold_s, 2 * len(self.jobs) * (1 + self.warm_rounds),
                       op_ms, sim, outputs, more_regions=warm_s)

    def check(self, out: PassOut) -> tuple[int, list[str]]:
        o = out.outputs
        bad = []
        for results in o["cold"]:
            for label, r in zip(self.labels, results):
                bad += ([f"{label}: {r.error}"] if not r.ok
                        else _check_payload(label, r.payload))
        for cold, warm, stats in zip(o["cold"], o["warm"], o["warm_stats"]):
            for label, c, w in zip(self.labels, cold, warm):
                if not (w.ok and w.from_cache and w.payload == c.payload):
                    bad.append(f"{label}: warm result is not the cold "
                               f"payload served from the store")
            if stats.cache_hits != len(self.jobs) or stats.simulated:
                bad.append(f"warm pass: {stats.cache_hits} cache hits, "
                           f"{stats.simulated} simulated, of "
                           f"{len(self.jobs)} jobs")
        return 4 * len(self.jobs), bad

    def exact(self, out: PassOut) -> dict[str, float]:
        secs = {label: r.payload["seconds"] for label, r in
                zip(self.labels, out.outputs["cold"][0]) if r.ok}
        rel = {}
        for hw, sim in ((HW_BPI, SIM_BPI), (HW_MILKV, SIM_MILKV)):
            for j in self.jobs:
                if j.config.name == hw:
                    rel[j.workload, hw] = relative_speedup(
                        secs[f"{j.workload}@{hw}"],
                        secs[f"{j.workload}@{sim}"])
        return {"analysis.model_err_log2": _err_log2(rel)}

    def layers(self, rec: Recorder, out: PassOut) -> dict[str, float]:
        o = out.outputs
        payloads = [r.payload for r in o["cold"][0]]
        m = _payload_counts(payloads)
        m["farm.cache_hits"] = o["warm_stats"][0].cache_hits
        m["farm.retries"] = sum(s.retries for s in o["cold_stats"])
        m["farm.crashes"] = sum(s.crashes for s in o["cold_stats"])

        probe = Regions(OFF)
        with probe.time("codec"):
            blobs = [json.dumps(p) for p in payloads]
            for blob in blobs:
                json.loads(blob)
        n = len(self.jobs)
        m["farm.payload_s"] = probe.ref["codec"] / n
        m["farm.payload_bytes"] = _median([len(b) for b in blobs])

        keys = [cache_key(job) for job in self.jobs]
        for kind, cls in (("cache", ResultCache),
                          ("store", SharedResultStore)):
            store = cls(self._fresh(f"probe-{kind}"))
            with probe.time(f"{kind}-put"):
                for key, job, p in zip(keys, self.jobs, payloads):
                    store.put(key, job, p)
            with probe.time(f"{kind}-get"):
                for key in keys:
                    store.get(key)
            m[f"farm.{kind}_put_s"] = probe.ref[f"{kind}-put"] / n
            m[f"farm.{kind}_get_s"] = probe.ref[f"{kind}-get"] / n

        # job by job, so both sides see the same host weather
        one = RunFarm(workers=1, cache=ResultCache(self._fresh("probe-one")))
        serial, farmed = Regions(OFF), Regions(OFF)
        for i, job in enumerate(self.jobs):
            memo.clear_caches()
            with serial.time(str(i)):
                execute_job(job)
            memo.clear_caches()
            with farmed.time(str(i)):
                one.run([job])
        serial_s = sum(serial.ref.values())
        m["farm.dispatch_overhead_s"] = sum(farmed.ref.values()) - serial_s
        m["farm.parallel_efficiency"] = serial_s / (
            WORKERS * out.regions.ref["ResultCache"])
        return m


# -- serve_closed_loop ------------------------------------------------------


class ServeClosedLoop(Workload):
    name = "serve_closed_loop"
    CLIENTS = min(2, NPROC)
    loop = (f"closed loop, {CLIENTS} client threads (tenants a, b), each "
            f"submit then wait(poll_s=0.002); server runs {WORKERS} workers")
    KERNELS = ("EI", "MD", "CCh")

    def setup(self) -> None:
        cfg = get_config(SIM_BPI)
        n = 20 if self.quick else 100
        self.jobs = [Job.kernel(cfg, self.KERNELS[i % 3], scale=0.1,
                                seed=self.seed + i) for i in range(n)]
        self.passes = 0
        # a server started and stopped: what the first submit would wait for
        with self._server() as handle:
            handle.client().ping()

    def params(self) -> dict[str, Any]:
        return {"jobs": len(self.jobs), "phases": ["miss", "hit"],
                "kernels": list(self.KERNELS), "config": SIM_BPI,
                "scale": 0.1, "clients": self.CLIENTS, "workers": WORKERS,
                "poll_s": 0.002, "server": "fresh per pass"}

    def _server(self):
        self.passes += 1
        # paths relative to the work dir keep the AF_UNIX path short
        return FarmServer.start_background(
            f"spool{self.passes}", deploy=f"local:{WORKERS}",
            socket_path=f"s{self.passes}.sock")

    def _phase(self, rec: Recorder, regions: Regions, endpoint: str,
               phase: str):
        """All jobs once through the closed loop, as one timed region;
        per-job latency in reference ms, status docs, errors."""
        lat = [0.0] * len(self.jobs)
        docs: list[Any] = [None] * len(self.jobs)
        errors: list[str] = []

        def client(ci: int) -> None:
            cl = ServeClient(endpoint)
            for i in range(ci, len(self.jobs), self.CLIENTS):
                op = f"{phase}{i}"
                t0 = time.perf_counter()
                try:
                    with rec.span("serve.submit", op):
                        doc = cl.submit(self.jobs[i], tenant="ab"[ci])
                    if doc["state"] != "ok":
                        with rec.span("serve.wait", op):
                            doc = cl.wait(doc["id"], poll_s=0.002)
                    docs[i] = doc
                except (ServeError, OSError) as exc:
                    # a failed op, counted; the run goes on
                    errors.append(f"{op}: {type(exc).__name__}: {exc}")
                lat[i] = (time.perf_counter() - t0) * 1e3

        threads = [threading.Thread(target=client, args=(ci,))
                   for ci in range(self.CLIENTS)]
        with regions.time(phase, sampled=True):
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        # the phase's slowdown stands for every job in it
        return [ms / regions.slowdown[phase] for ms in lat], docs, errors

    def run_pass(self, rec: Recorder) -> PassOut:
        _cold()
        regions = Regions(rec)
        with self._server() as handle:
            miss_ms, miss, errors = self._phase(rec, regions,
                                                handle.endpoint, "miss")
            hit_ms, hit, more = self._phase(rec, regions, handle.endpoint,
                                            "hit")
            cl = handle.client()
            status = cl.status()
            # a store hit is terminal at submit and carries no payload
            hit = [d and cl.status(d["id"], payload=True) for d in hit]
            ping_ms = 0.0
            if rec.enabled:
                probe = Regions(OFF)
                with probe.time("ping"):
                    for _ in range(50):
                        cl.ping()
                ping_ms = probe.ref["ping"] / 50 * 1e3
        sim = [_payload_sim(f"{i}:{d['label']}", d["payload"])
               for i, d in enumerate(miss) if d and d.get("payload")]
        outputs = {"miss": miss, "hit": hit, "errors": errors + more,
                   "hit_ms": hit_ms, "store": status.get("store", {}),
                   "ping_ms": ping_ms}
        return PassOut(regions, 2 * len(self.jobs), miss_ms, sim, outputs)

    def check(self, out: PassOut) -> tuple[int, list[str]]:
        o = out.outputs
        bad = list(o["errors"])
        for i, (m, h) in enumerate(zip(o["miss"], o["hit"])):
            if m is None or m["state"] != "ok":
                bad.append(f"miss{i}: state {m and m['state']}")
                continue
            bad += _check_payload(f"miss{i}", m.get("payload"))
            if h is None or h["state"] != "ok" or not h.get("from_cache"):
                bad.append(f"hit{i}: not served from the store")
            elif h.get("payload") != m.get("payload"):
                bad.append(f"hit{i}: store payload differs from the miss")
            if i % 50 == 0:
                memo.clear_caches()
                if execute_job(self.jobs[i]) != m.get("payload"):
                    bad.append(f"miss{i}: served payload differs from "
                               f"execute_job")
        return 2 * len(self.jobs), bad

    def layers(self, rec: Recorder, out: PassOut) -> dict[str, float]:
        o = out.outputs
        submits = [s.ref_s * 1e3 for s in rec.spans
                   if s.name == "serve.submit" and s.op.startswith("miss")]
        waits = [s.ref_s * 1e3 for s in rec.spans if s.name == "serve.wait"]
        direct = Regions(OFF)
        for i, job in enumerate(self.jobs):
            memo.clear_caches()
            with direct.time(str(i)):
                execute_job(job)
        m = _payload_counts([d["payload"] for d in o["miss"]
                             if d and d.get("payload")])
        m.update({
            "serve.submit_rtt_ms": _median(submits),
            "serve.ping_rtt_ms": o["ping_ms"],
            "serve.queue_to_done_ms": _median(waits),
            "serve.hit_p50_ms": _median(o["hit_ms"]),
            "serve.miss_minus_direct_ms":
                _median(out.op_ms) - _median(_ms(direct)),
            "serve.store_hits": o["store"].get("hits", 0),
            "serve.retries": sum(max(0, d["attempts"] - 1)
                                 for d in o["miss"] if d),
        })
        return m


REGISTRY: dict[str, type[Workload]] = {
    w.name: w for w in (TracePipeline, SuiteCold, SweepBatched, AppsMpi,
                        FarmStore, ServeClosedLoop)}
