"""Pinned results of the core loops, case by case.

Every case runs one workload shape through ``InOrderCore.run`` or
``OoOCore.run`` and returns the objects it produced: the
:class:`~repro.core.base.CoreResult` (or a workload's own result), the
telemetry snapshot with the ``accel`` records stripped, and the
captured system state minus the cores' ``accel_stats``.
``loop_pins.json`` holds the type-strict sha-256 of each.  The cases
are what the 780 kernel pins of ``tests/check/pinned_results.json`` do
not reach: a LAMMPS step and NPB EP on every config, long straight-line
traces, fetch lines across 2**63, CPI stacks, mid-run checkpoint/restore
and chunked lockstep runs, the predictor's folded registers across run
cuts, the K1 core's vector unit, and the two "no vector unit" errors.

The pins were first recorded with the two loops per core type the
package once had (reference and engine loops, which agreed on every
case); the engine loops became ``InOrderCore.run``/``OoOCore.run``
unchanged.  Regenerate them (only when a core loop is *meant* to change)
with
``PYTHONPATH=src python tests/core/loop_pins.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from collections import deque
from functools import partial

import numpy as np

from repro.accel import memo
from repro.core.vector import VectorConfig
from repro.farm.job import Job, execute_job
from repro.instrument import Instrument, InstrumentSpec, TraceTrigger
from repro.instrument.markers import marker_addr
from repro.isa.opcodes import OpClass
from repro.isa.trace import TraceBuilder
from repro.reliability import SimCheckpoint
from repro.reliability.checkpoint import _digest_update, capture_system
from repro.smpi import MultiNodeRuntime, SMPIRuntime
from repro.soc.presets import ALL_CONFIGS, BANANA_PI_HW, get_config
from repro.soc.system import System
from repro.telemetry import StatsRegistry, cpi_stack
from repro.workloads.lammps import run_lammps
from repro.workloads.lammps.workload import lammps_program
from repro.workloads.microbench import get_kernel, run_kernel
from repro.workloads.npb import run_ep
from repro.workloads.npb.cg import cg_program
from repro.workloads.npb.mg import mg_program

LOOP_PINS = pathlib.Path(__file__).with_name("loop_pins.json")

CONFIG_NAMES = sorted(ALL_CONFIGS)

# -- digests --------------------------------------------------------------------

def canon(x):
    """Dataclasses as dicts, deques as lists, numpy values as Python ones
    (the EP and LAMMPS ranks return numpy workload data)."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = dataclasses.asdict(x)
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, deque)):
        return [canon(v) for v in x]
    if hasattr(x, "tolist"):
        return x.tolist()
    return x


def digest(obj) -> str:
    """Type-strict sha-256 of *obj* (``2`` and ``2.0`` differ)."""
    h = hashlib.sha256()
    _digest_update(h, canon(obj))
    return h.hexdigest()


def stats(system) -> dict:
    """The system's telemetry snapshot minus the engine's own counters."""
    data = StatsRegistry(system).snapshot().data
    data.pop("accel", None)
    for tile in data["tiles"]:
        tile.pop("accel", None)
    return data


def state(system) -> dict:
    """Everything a checkpoint captures, minus the engine's uop counter."""
    tree = capture_system(system)
    for tile in tree["tiles"]:
        tile["core"].pop("accel_stats", None)
    return tree


def ended(system, prefix="", **objs) -> dict:
    """*objs* plus the system's stripped snapshot and state, each label
    under *prefix*."""
    objs.update(stats=stats(system), state=state(system))
    return {prefix + k: v for k, v in objs.items()}


# -- traces ---------------------------------------------------------------------

def straightline(reps=40, n_alu=48, n_fp=40):
    """ALU run | load | FP run | divide | branch, repeated: dependence-
    linked exec runs far longer than any microbench loop body."""
    b = TraceBuilder()
    for rep in range(reps):
        for i in range(n_alu):
            b.alu(dst=1 + i % 8, src1=1 + (i + 3) % 8, src2=1 + (i + 5) % 8)
        b.load(dst=9, addr=0x2_0000 + 64 * rep)
        for i in range(n_fp):
            b.fp(OpClass.FP_FMA, dst=12 + i % 4, src1=9,
                 src2=12 + (i + 1) % 4)
        b.div(dst=10, src1=1, src2=2)
        b.branch(taken=rep % 7 == 0)
    return b.build()


def straddling_2_63():
    """Loops whose PCs run across 2**63: a fall-through from the last
    fetch line below it into the first above, then taken jumps to lines
    on either side."""
    top = 2 ** 63
    b = TraceBuilder(pc0=top - 96)
    for rep in range(40):
        for i in range(40):
            b.alu(dst=1 + i % 8, src1=1 + (i + 3) % 8)
        b.fp(OpClass.FP_ADD, dst=40, src1=41, src2=40)
        b.load(dst=9, addr=0x8000 + 64 * rep)
        b.jump(target=(top - 96 - 64 * (rep % 3)) if rep % 2
               else top + 64 * (rep % 5))
        for _ in range(6):
            b.alu(dst=2, src1=2)
        b.branch(taken=True, target=top - 96)
    return b.build()


def chunky_trace():
    """Chunk-boundary corners for 2048-uop chunks: pc0 is 8 bytes into a
    fetch line, so every chunk's first uop shares its line with the
    previous chunk's last; uops 2048..4095 are all simple (no divide,
    memory, control or vector op); uops 4096..6143 are none of them."""
    b = TraceBuilder(pc0=0x1_0008)
    for i in range(2048):                       # mixed
        if i % 7 == 3:
            b.load(dst=9, addr=0x2_0000 + 64 * (i % 300))
        elif i % 11 == 5:
            b.store(src=3, addr=0x6_0000 + 8 * i)
        elif i % 13 == 0:
            b.branch(taken=i % 26 == 0, src1=1)
        elif i % 17 == 1:
            b.div(dst=10, src1=1, src2=2)
        else:
            b.alu(dst=1 + i % 8, src1=1 + (i + 3) % 8, src2=9)
    for i in range(2048):                       # simple only
        if i % 3:
            b.alu(dst=1 + i % 8, src1=1 + (i + 1) % 8, src2=10)
        else:
            b.fp(OpClass.FP_FMA, dst=12 + i % 4, src1=12 + (i + 1) % 4)
    for i in range(2048):                       # nothing simple
        if i % 4 == 0:
            b.load(dst=9, addr=0x8_0000 + 4096 * (i % 40) + 8 * (i % 5))
        elif i % 4 == 1:
            b.store(src=9, addr=0x8_0000 + 64 * i)
        elif i % 4 == 2:
            b.div(dst=10, src1=9, src2=2)
        else:
            b.branch(taken=False, src1=10)
    for i in range(700):                        # mixed tail, short chunk
        if i % 5 == 0:
            b.amo(dst=4, src=5, addr=0x9_0000 + 64 * (i % 16))
        else:
            b.alu(dst=1 + i % 8, src1=4, src2=1 + (i + 2) % 8)
    return b.build()


def vector_mix(n=1024):
    """Vector loads, stores, ALU and FMA ops from 8 to 200 bytes wide
    (up to four cache lines per access), interleaved with scalar ops."""
    b = TraceBuilder()
    widths = (8, 16, 32, 24, 128, 200)
    for i in range(n):
        vl = widths[i % len(widths)]
        base = 0x10_0000 + 96 * i
        b.vload(40, base, vl)
        b.vload(41, base + 0x10_0000, vl)
        if i % 3:
            b.vfma(42, 40, 41, nbytes=vl)
        else:
            b.valu(42, src1=40, src2=41, nbytes=vl)
        b.vstore(42, base + 0x20_0000, vl)
        if i % 5 == 0:
            b.alu(dst=3, src1=3, src2=2)
            b.load(dst=9, addr=0x40_0000 + 64 * (i % 50))
            b.branch(taken=i % 10 == 0, src1=9)
    return b.build()


def axpy_vector(n=2048, vl=32):
    """A vector axpy over a 64-instruction loop body."""
    b = TraceBuilder()
    for i in range(0, n, vl // 8):
        b.vload(40, 0x100000 + i * 8, vl)
        b.vload(41, 0x200000 + i * 8, vl)
        b.vfma(42, 40, 41, nbytes=vl)
        b.vstore(42, 0x300000 + i * 8, vl)
    trace = b.build()
    trace.pc[:] = 0x1_0000 + (np.arange(len(trace), dtype=np.uint64) % 64) * 4
    return trace


def no_vector_unit_trace():
    """1500 load/use pairs, then a vector op the core cannot run."""
    b = TraceBuilder()
    for i in range(1500):
        b.load(dst=9, addr=0x2_0000 + 64 * i)
        b.alu(dst=1, src1=9)
    b.valu(dst=3, src1=1)
    b.alu(dst=2, src1=3)
    return b.build()


def k1_with_rvv(**vkw):
    """The Banana Pi K1 core with an RVV unit of ``VectorConfig(**vkw)``."""
    return BANANA_PI_HW.with_(
        name="K1-RVV",
        inorder=dataclasses.replace(BANANA_PI_HW.inorder,
                                    vector=VectorConfig(**vkw)))


# -- cases ----------------------------------------------------------------------
#
# A case returns the objects to pin, by label.

def _microbench(name):
    return {"result": run_kernel(get_config(name), "MM",
                                 scale=0.05).result}


def _npb_ep(name):
    return {"result": run_ep(get_config(name), cls="S")}


def _lammps(name):
    return {"result": run_lammps(get_config(name), nranks=1,
                                 benchmark="lj", natoms=64, steps=1)}


def _twice(name, trace):
    """Cold, then again with a warm front end and memory."""
    system = System(get_config(name))
    return ended(system, cold=system.run(trace), warm=system.run(trace))


def _cpi_stack(name):
    system = System(get_config(name))
    trace = get_kernel("MM").build(scale=0.1)
    reg = StatsRegistry(system)
    system.warm(trace)
    base = reg.snapshot()
    result = system.run(trace)
    stack = cpi_stack(system, result, reg.delta(base))
    return ended(system, result=result, stack=stack.to_dict())


def _checkpoint_mid_run():
    """Rocket1 lockstep, checkpointed after four quanta and finished in
    a new System, beside the uninterrupted run."""
    cfg = get_config("Rocket1")
    trace = get_kernel("MM").build(scale=0.05)
    whole = System(cfg).run_parallel([trace], quantum=512, chunk=256)[0]
    run = System(cfg).start_parallel([trace], quantum=512, chunk=256)
    for _ in range(4):
        if run.done:
            break
        run.step()
    cut = run.done
    system = System(cfg)
    resumed = system.restore(run.checkpoint(), [trace])
    resumed.run()
    return ended(system, whole=whole, resumed=resumed.results()[0],
                 done_at_cut=cut)


def run_chunks(system, trace, chunk=2048):
    total = None
    for lo in range(0, len(trace), chunk):
        r = system.run(trace[lo:lo + chunk])
        total = r if total is None else total + r
    return total


def _chunked(name):
    """One trace run whole, in 2048-uop chunks, and in lockstep cut and
    resumed through a checkpoint into a new System."""
    cfg = get_config(name)
    trace = chunky_trace()
    system = System(cfg)
    out = ended(system, "whole/", result=system.run(trace))
    system = System(cfg)
    out.update(ended(system, "chunks/", result=run_chunks(system, trace)))
    system = System(cfg)
    out.update(ended(system, "lockstep/", result=system.run_parallel(
        [trace], quantum=1024, chunk=2048)[0]))
    run = System(cfg).start_parallel([trace], quantum=1024, chunk=2048)
    run.step(2)
    cut = run.done
    system = System(cfg)
    resumed = system.restore(run.checkpoint(), [trace])
    resumed.run()
    out.update(ended(system, "restored/", result=resumed.results()[0],
                     done_at_cut=cut))
    return out


def _four_tiles():
    traces = [get_kernel(k).build(scale=0.05, seed=3)
              for k in ("MM", "STL2", "ML2_BW_ld", "MC")]
    system = System(get_config("BananaPi-K1"))
    return ended(system, results=system.run_parallel(traces, quantum=512,
                                                     chunk=256))


def _no_vector_unit(name):
    """The error a vector op raises on a core without a vector unit, what
    the run left behind, and the next run from that state."""
    system = System(get_config(name))
    try:
        system.run(no_vector_unit_trace())
    except ValueError as exc:
        error = str(exc)
    else:
        error = None
    after_error = state(system)
    return ended(system, error=error, after_error=after_error,
                 next=system.run(get_kernel("MC").build(scale=0.05)))


def _run_cut(cfg, trace, cuts, restore=False) -> tuple:
    """Run ``trace`` in the pieces ``cuts`` delimits; with *restore*, move
    to a new ``System`` through a checkpoint after the first piece."""
    system = System(cfg)
    results = []
    for a, b in zip(cuts, cuts[1:]):
        results.append(system.run(trace[a:b]))
        if restore and a == cuts[0]:
            ckpt = SimCheckpoint.from_bytes(system.save_checkpoint().to_bytes())
            system = System(cfg)
            system.restore(ckpt, None)  # a new System: registers restored
    bru = system.tiles[0].core.bru
    d = bru.direction
    tables = {"ctr": d._ctr, "tag": d._tag, "useful": d._useful,
              "base": d.base._ctr, "hist": d._hist,
              "folded": (d._fidx, d._ftag, d._ftag1)}
    return results, tables, bru.stats


def _tage_cuts(name):
    """The branch stream of CCh cut into binds three ways; per shape, the
    run results, TAGE's tables and registers, and the branch stats."""
    trace = get_kernel("CCh").build(scale=0.1, seed=3)
    n = len(trace)
    cuts = [0, n // 3 + 1, 2 * n // 3 + 2, n]
    shapes = {"straight": ([0, n], False), "chunked": (cuts, False),
              "restored": (cuts, True)}
    out = {}
    for shape, args in shapes.items():
        results, tables, bstats = _run_cut(get_config(name), trace, *args)
        out.update({f"{shape}/results": results, f"{shape}/tables": tables,
                    f"{shape}/branch_stats": bstats})
    return out


def _vector():
    """The K1 core with a vector unit: an axpy-shaped stream and a mix of
    widths, each cold then warm."""
    out = {}
    for tname, trace in (("axpy", axpy_vector()), ("mix", vector_mix())):
        system = System(k1_with_rvv())
        out.update(ended(system, f"{tname}/", cold=system.run(trace),
                         warm=system.run(trace)))
    return out


def _dram_queue_depth_one():
    h = get_config("BananaPiSim").hierarchy
    cfg = get_config("BananaPiSim").with_(hierarchy=dataclasses.replace(
        h, dram=dataclasses.replace(h.dram, queue_depth=1)))
    system = System(cfg)
    return ended(system, result=system.run(
        get_kernel("MM").build(scale=0.05, seed=0)))


def _mpi(name, program, nranks=4, chunk=4096):
    """*program* on *nranks* ranks of one system, ``chunk`` uops per
    compute step."""
    system = System(get_config(name))
    results = SMPIRuntime(system, nranks, chunk=chunk).run(program)
    return ended(system, results=results)


def _lammps_4_ranks(name):
    """256 atoms, one step: every force Compute op spans several
    4096-uop chunks."""
    return _mpi(name, lambda comm: lammps_program(comm, "lj", 256, 1))


def _two_nodes():
    """Two Banana Pi nodes, two ranks each: a three-chunk kernel trace
    per rank, an allreduce over the Ethernet, then a two-chunk trace."""
    traces = [get_kernel("MM").build(scale=0.35, seed=r) for r in range(4)]
    tail = get_kernel("STL2").build(scale=0.1)

    def program(comm):
        yield from comm.compute(traces[comm.rank])
        total = yield from comm.allreduce(float(comm.rank))
        yield from comm.compute(tail)
        return total

    systems = [System(get_config("BananaPiSim")) for _ in range(2)]
    results = MultiNodeRuntime(systems, ranks_per_node=2).run(program)
    out = {"results": results}
    for i, system in enumerate(systems):
        out.update(ended(system, f"node{i}/"))
    return out


def marker_trace(n=3000):
    """Loads, ALU ops and a branch per 8 uops, with a magic-store
    marker every 250 uops."""
    b = TraceBuilder(pc0=0x4_0000)
    for i in range(n):
        if i % 250 == 17:
            b.store(src=3, addr=marker_addr(16 + i % 3, i))
        elif i % 8 == 2:
            b.load(dst=9, addr=0x3_0000 + 64 * (i % 200))
        elif i % 8 == 7:
            b.branch(taken=i % 16 == 7, src1=9)
        else:
            b.alu(dst=1 + i % 6, src1=9, src2=1 + (i + 1) % 6)
    return b.build()


def _instrumented_lockstep(name):
    """Three lanes in 256-uop chunks under an instrument with PC- and
    cycle-armed windows, counter samples and markers; pins the stream
    records beside the results."""
    traces = [get_kernel("MM").build(scale=0.05, seed=1), marker_trace(),
              get_kernel("MC").build(scale=0.05)]
    spec = InstrumentSpec(
        triggers=(TraceTrigger(start_pc=int(traces[0].pc[700]), length=300,
                               label="mm"),
                  TraceTrigger(start_cycle=5000, stop_cycle=9000, tile=1,
                               max_records=400),
                  TraceTrigger(start_pc=int(traces[2].pc[1000]),
                               stop_pc=int(traces[2].pc[1200]), tile=2)),
        counter_interval=3000)
    system = System(get_config(name))
    inst = Instrument(spec)
    system.attach_instrument(inst)
    results = system.run_parallel(traces, quantum=512, chunk=256)
    system.detach_instrument()
    return ended(system, results=results, stream=inst.stream.records)


def _job_payload(name):
    return {"payload": execute_job(
        Job.kernel(get_config(name), "EI", scale=0.05))}


#: case name -> () -> {label: object}
CASES = {}
for _name in CONFIG_NAMES:
    CASES[f"microbench/{_name}"] = partial(_microbench, _name)
    CASES[f"npb_ep/{_name}"] = partial(_npb_ep, _name)
    CASES[f"lammps/{_name}"] = partial(_lammps, _name)
for _name in ("Rocket1", "MediumBOOM"):
    CASES[f"straightline/{_name}"] = partial(
        lambda name: _twice(name, straightline()), _name)
    CASES[f"job_payload/{_name}"] = partial(_job_payload, _name)
CASES["fetch_2_63/MediumBOOM"] = lambda: _twice("MediumBOOM",
                                                straddling_2_63())
for _name in ("Rocket1", "BananaPi-K1", "MILKVSim"):
    CASES[f"cpi_stack/{_name}"] = partial(_cpi_stack, _name)
CASES["checkpoint_mid_run/Rocket1"] = _checkpoint_mid_run
for _name in ("BananaPiSim", "BananaPi-K1"):
    CASES[f"chunked/{_name}"] = partial(_chunked, _name)
CASES["four_tiles/BananaPi-K1"] = _four_tiles
for _name in ("BananaPiSim", "MediumBOOM"):
    CASES[f"no_vector_unit/{_name}"] = partial(_no_vector_unit, _name)
for _name in ("LargeBOOM", "MILKV-SG2042"):
    CASES[f"tage_cuts/{_name}"] = partial(_tage_cuts, _name)
CASES["vector/K1-RVV"] = _vector
CASES["dram_queue_depth_one/BananaPiSim"] = _dram_queue_depth_one
for _name in ("BananaPi-K1", "BananaPiSim"):
    CASES[f"lammps_4_ranks/{_name}"] = partial(_lammps_4_ranks, _name)
for _name in ("BananaPiSim", "MILKV-SG2042"):
    # 512-uop chunks: at class S no Compute op is longer than 4096 uops
    CASES[f"npb_cg_4_ranks/{_name}"] = partial(
        _mpi, _name, lambda comm: cg_program(comm, "S"), chunk=512)
    CASES[f"npb_mg_4_ranks/{_name}"] = partial(
        _mpi, _name, lambda comm: mg_program(comm, "S"), chunk=512)
CASES["two_nodes/BananaPiSim"] = _two_nodes
for _name in ("BananaPi-K1", "MediumBOOM"):
    CASES[f"instrumented_lockstep/{_name}"] = partial(
        _instrumented_lockstep, _name)


def run(name: str) -> dict:
    """Run case *name* from cold memo caches."""
    memo.clear_caches()
    try:
        return CASES[name]()
    finally:
        memo.clear_caches()


def drive(name: str, objs: dict | None = None) -> dict:
    """Case *name*'s pins: the digest of every object it produced (of
    *objs*, when the caller already ran it)."""
    return {k: digest(v) for k, v in (objs or run(name)).items()}


def compute_loop_pins() -> dict:
    return {name: drive(name) for name in CASES}


def load_loop_pins() -> dict:
    return json.loads(LOOP_PINS.read_text()) if LOOP_PINS.exists() else {}


_pinned: dict = {}


def check(name: str) -> dict:
    """Run case *name*, assert it matches its pins, and return what it
    produced for the caller's own assertions."""
    if not _pinned:
        _pinned.update(load_loop_pins())
    objs = run(name)
    assert drive(name, objs) == _pinned[name], name
    return objs


if __name__ == "__main__":
    LOOP_PINS.write_text(
        json.dumps(compute_loop_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {LOOP_PINS}")
