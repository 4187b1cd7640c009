"""The memory walk and the flat in-order loop, corner by corner.

``tests/accel/test_bitident.py`` holds the presets to ``accel="on" ==
accel="off"``; this file drives the places the presets rarely reach.
The port walk (``TilePort.bind``) is held to ``walk_pins.json``, call by
call and state digest by state digest: the tail-appended timelines, the
MSHR/in-flight high-water marks, the per-set cache rows, the inlined TLB
probe, the prefetcher and the interleaved LLC slices.  The classified
engine loop is compared with the reference loop across chunk boundaries,
results and every piece of captured state (LRU-ordered tag rows, dirty
sets, MSHR dicts, every timeline's ``_starts``/``_ends``, DRAM in-flight
queues, TLB sets), value for value and type for type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
from collections import deque

import pytest

from repro.accel import memo
from repro.accel.compile import compiled_trace
from repro.accel.stats import global_stats
from repro.isa.opcodes import OpClass
from repro.isa.trace import TraceBuilder
from repro.mem.prefetch import PrefetcherConfig
from repro.mem.tlb import TLBConfig
from repro.reliability.checkpoint import _digest_update, capture_system
from repro.soc.presets import get_config
from repro.soc.system import System
from repro.workloads.microbench import get_kernel


#: per (variant, stream), first recorded from the reference ``TilePort``
#: methods the bound walk replaced; regenerate (only when the walk is
#: *meant* to change) with ``PYTHONPATH=src python tests/accel/test_flat_walk.py``
WALK_PINS = pathlib.Path(__file__).with_name("walk_pins.json")


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


def _canon(x):
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, deque)):
        return [_canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_canon(v) for v in x)
    if dataclasses.is_dataclass(x):
        return _canon(dataclasses.asdict(x))
    if hasattr(x, "__slots__"):
        return {k: _canon(getattr(x, k)) for k in x.__slots__}
    if hasattr(x, "__dict__"):
        return {k: _canon(v) for k, v in vars(x).items()}
    return x


#: captured state the walk pins leave out: TAGE's folded-history
#: registers joined the capture after the pins were recorded, and no
#: port walk touches a predictor (``tests/core/branch_pins.json`` and
#: ``test_tage_fold.py`` hold them)
_NOT_WALK_STATE = ("_fidx", "_ftag", "_ftag1")


def _state(system, leave_out=()):
    """Everything a checkpoint would capture, as a comparable tree plus a
    type-strict digest (``2 == 2.0`` but their digests differ).  The
    engine's own uop counter is the one field allowed to differ; the
    *leave_out* keys of the direction predictor are dropped."""
    tree = capture_system(system)
    for tile in tree["tiles"]:
        tile["core"].pop("accel_stats", None)
        for name in leave_out:
            tile["direction"].pop(name, None)
    h = hashlib.sha256()
    _digest_update(h, tree)
    return _canon(tree), h.hexdigest()


def _assert_same_state(ref, fast):
    ref_tree, ref_digest = _state(ref)
    fast_tree, fast_digest = _state(fast)
    assert fast_tree == ref_tree
    assert fast_digest == ref_digest


def _timelines(system):
    unc = system.uncore
    yield unc.bus._timeline
    for cache in [unc.l2] + [c for t in system.tiles
                             for c in (t.port.l1i, t.port.l1d)]:
        yield from cache._bank_free
    for dram in unc.drams:
        yield from dram._chan_bus


# -- the port walk, level by level ----------------------------------------------

def _hier(**changes):
    def apply(cfg):
        h = cfg.hierarchy
        new = {k: (dataclasses.replace(getattr(h, k), **v)
                   if isinstance(v, dict) else v)
               for k, v in changes.items()}
        return cfg.with_(hierarchy=dataclasses.replace(h, **new))
    return apply


#: name -> (base config, config transform)
VARIANTS = {
    "preset": ("BananaPiSim", lambda cfg: cfg),
    "banked_l1_cycle2": ("BananaPiSim", _hier(
        l1d={"banks": 4, "cycle_time": 2}, l1i={"banks": 2, "cycle_time": 2})),
    "cycle_time0": ("BananaPiSim", _hier(l1d={"cycle_time": 0},
                                         l2={"cycle_time": 0})),
    "tiny_mshrs": ("BananaPiSim", _hier(l1d={"mshrs": 1}, l2={"mshrs": 2})),
    # enough misses in flight to fill and drain the DRAM channel queues
    "many_mshrs": ("BananaPiSim", _hier(l1d={"mshrs": 16}, l2={"mshrs": 32})),
    "two_level_tlb": ("BananaPiSim", _hier(l2_tlb_entries=64)),
    "set_assoc_tlb": ("BananaPiSim", _hier(
        dtlb=TLBConfig(entries=16, assoc=4), itlb=TLBConfig(entries=8, assoc=2))),
    "prefetch_l1d": ("BananaPiSim", lambda cfg: cfg.with_(
        prefetcher=PrefetcherConfig(table_entries=8, degree=2))),
    # four interleaved LLC slices, each over its own DRAM channel:
    # SimplifiedLLC, and RealisticLLC (banked, cycle_time 2)
    "llc_simplified": ("MILKVSim", lambda cfg: cfg),
    "llc_realistic": ("MILKV-SG2042", lambda cfg: cfg),
}


def _system(variant):
    base, transform = VARIANTS[variant]
    return System(transform(get_config(base)))


def _stream_monotone_then_early():
    """1700 strided loads 10 cycles apart (every timeline sees more than
    max_intervals tail bookings and trims as it goes), then requests from
    the past."""
    ops = [("dload", 0x10_0000 + 64 * i, 100 + 10 * i) for i in range(1700)]
    ops += [("dload", 0x90_0000, 50), ("dstore", 0x90_0040, 51)]
    ops += [("dload", 0x10_0000 + 64 * i, 17200 + 10 * i) for i in range(40)]
    ops += [("ifetch", 0x4000, 17000), ("dstore", 0x90_0080, 17001),
            ("dload", 0x90_00c0, 18000), ("dload", 0x90_0100, 17999)]
    return ops


def _stream_same_time_bursts():
    """Bursts of misses to distinct lines at one instant: MSHR pools fill,
    stall and prune; bank and bus queues grow busy runs."""
    ops = []
    for burst in range(12):
        t = 40 + 900 * burst
        for i in range(40):
            kind = "dstore" if (burst + i) % 3 == 0 else "dload"
            ops.append((kind, 0x20_0000 + 4096 * burst + 64 * i, t))
        ops += [("dload", 0x20_0000 + 64 * i, t + 3) for i in range(8)]
    return ops


def _stream_random(seed=5):
    """Loads, stores and fetches over a pool that conflicts in both L1s
    (dirty evictions) and spans many pages (TLB misses, page walks), at
    times skewed the way lagging lockstep tiles skew them."""
    rng = random.Random(seed)
    pool = ([0x30_0000 + 4096 * k for k in range(24)]
            + [0x40_0000 + 64 * k for k in range(48)]
            + [0x50_0000 + 8192 * 64 * k for k in range(12)])
    t, ops = 0, []
    for _ in range(2500):
        t = max(0, t + rng.choice((-40, -3, 0, 1, 2, 2, 5, 9, 60)))
        ops.append((rng.choice(("dload", "dload", "dstore", "ifetch")),
                    rng.choice(pool) + rng.choice((0, 8, 56)), t))
    return ops


STREAMS = {"monotone_then_early": _stream_monotone_then_early,
           "same_time_bursts": _stream_same_time_bursts,
           "random": _stream_random}


def _walk_pins(system, binds):
    """Drive *binds* -- ``(tile, ops)`` pairs, one bind each -- through
    the port walk; per bind, the sha-256 of every call's ``(return
    value, type)`` and the type-strict state digest after it closes."""
    out = []
    for tile, ops in binds:
        dload, dstore, ifetch, close = system.tiles[tile].port.bind()
        walk = {"dload": dload, "dstore": dstore, "ifetch": ifetch}
        h = hashlib.sha256()
        try:
            for kind, addr, time in ops:
                got = walk[kind](addr, time)
                h.update(repr((got, type(got).__name__)).encode())
        finally:
            close()
        for tl in _timelines(system):
            assert len(tl._starts) == len(tl._ends) <= tl.max_intervals
        out.append({"calls": h.hexdigest(),
                    "state": _state(system, _NOT_WALK_STATE)[1]})
    return out


def _thirds(ops):
    third = len(ops) // 3 + 1
    return [(0, ops[lo:lo + third]) for lo in range(0, len(ops), third)]


def _second_tile_binds():
    ops = _stream_random(seed=9)
    return [(tile, ops[lo:lo + 800])
            for tile, lo in ((0, 0), (1, 800), (0, 1600), (2, 2000))]


def compute_walk_pins() -> dict:
    pins = {f"{variant}/{stream}": _walk_pins(_system(variant),
                                             _thirds(STREAMS[stream]()))
            for variant in VARIANTS for stream in STREAMS}
    pins["second_tile"] = _walk_pins(_system("preset"), _second_tile_binds())
    return pins


_walk_pinned = (json.loads(WALK_PINS.read_text())
                if WALK_PINS.exists() else {})


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_port_walk_matches_reference(variant, stream):
    """Every TilePort entry point, call by call, over three binds."""
    got = _walk_pins(_system(variant), _thirds(STREAMS[stream]()))
    assert got == _walk_pinned[f"{variant}/{stream}"]


def test_port_walk_from_a_second_tile_sees_the_first_tiles_lines():
    """Coherence actions and shared-L2 state across two ports' binds."""
    got = _walk_pins(_system("preset"), _second_tile_binds())
    assert got == _walk_pinned["second_tile"]


# -- the classified loop across run boundaries --------------------------------------

def _chunky_trace():
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


def _run_chunks(system, trace, chunk=2048):
    total = None
    for lo in range(0, len(trace), chunk):
        r = system.run(trace[lo:lo + chunk])
        total = r if total is None else total + r
    return total


@pytest.mark.parametrize("name", ["BananaPiSim", "BananaPi-K1"])
def test_whole_chunked_and_restored_runs(name):
    trace = _chunky_trace()
    simple, newline = compiled_trace(trace).issue_flags()
    assert all(simple[2048:4096]) and not any(simple[4096:6144])
    assert newline[0] and not newline[2048] and not newline[4096]
    off = get_config(name).with_(accel="off")
    on = get_config(name).with_(accel="on")

    ref_sys, fast_sys = System(off), System(on)
    assert (dataclasses.asdict(fast_sys.run(trace))
            == dataclasses.asdict(ref_sys.run(trace)))
    _assert_same_state(ref_sys, fast_sys)

    ref_sys, fast_sys = System(off), System(on)
    assert (dataclasses.asdict(_run_chunks(fast_sys, trace))
            == dataclasses.asdict(_run_chunks(ref_sys, trace)))
    _assert_same_state(ref_sys, fast_sys)

    # lockstep in 2048-uop chunks, interrupted, checkpointed and resumed
    # in a new accelerated System
    ref_sys = System(off)
    want = ref_sys.run_parallel([trace], quantum=1024, chunk=2048)[0]
    run = System(on).start_parallel([trace], quantum=1024, chunk=2048)
    run.step(2)
    assert not run.done
    fast_sys = System(on)
    resumed = fast_sys.restore(run.checkpoint(), [trace])
    resumed.run()
    assert (dataclasses.asdict(resumed.results()[0])
            == dataclasses.asdict(want))
    _assert_same_state(ref_sys, fast_sys)


def test_four_tiles_in_lockstep_share_one_l2():
    traces = [get_kernel(k).build(scale=0.05, seed=3)
              for k in ("MM", "STL2", "ML2_BW_ld", "MC")]
    ref_sys = System(get_config("BananaPi-K1").with_(accel="off"))
    fast_sys = System(get_config("BananaPi-K1").with_(accel="on"))
    want = ref_sys.run_parallel(traces, quantum=512, chunk=256)
    got = fast_sys.run_parallel(traces, quantum=512, chunk=256)
    assert ([dataclasses.asdict(r) for r in got]
            == [dataclasses.asdict(r) for r in want])
    _assert_same_state(ref_sys, fast_sys)


# -- a run that raises ------------------------------------------------------------

def test_raising_run_credits_no_uops_and_still_detaches():
    """A vector op on a vector-less core raises mid-trace: the engine's
    uop counters stay put (as in ``accel/ooo.py``), and the mirrors are
    written back — what retired before the fault is in the reference
    objects, timelines materialised and trimmed."""
    b = TraceBuilder()
    for i in range(1500):
        b.load(dst=9, addr=0x2_0000 + 64 * i)
        b.alu(dst=1, src1=9)
    b.valu(dst=3, src1=1)
    b.alu(dst=2, src1=3)
    trace = b.build()
    ref_sys = System(get_config("BananaPiSim").with_(accel="off"))
    fast_sys = System(get_config("BananaPiSim").with_(accel="on"))
    core = fast_sys.tiles[0].core
    before = (core.accel_stats.engine_uops, global_stats().engine_uops)
    for system in (ref_sys, fast_sys):
        with pytest.raises(ValueError, match="no vector unit"):
            system.run(trace)
    assert (core.accel_stats.engine_uops,
            global_stats().engine_uops) == before
    assert fast_sys.uncore.l2.stats.accesses > 1500
    for tl in _timelines(fast_sys):
        assert len(tl._starts) == len(tl._ends) <= tl.max_intervals
    # the reference raises before it writes its own loop state back, so
    # compare what both paths do persist: the memory hierarchy and bru
    ref_tree, fast_tree = _state(ref_sys)[0], _state(fast_sys)[0]
    assert fast_tree["uncore"] == ref_tree["uncore"]
    for ref_tile, fast_tile in zip(ref_tree["tiles"], fast_tree["tiles"]):
        for part in ("l1i", "l1d", "itlb", "dtlb", "bru"):
            assert fast_tile[part] == ref_tile[part]
    # and the next run starts from that state, identically
    ok = get_kernel("MC").build(scale=0.05)
    assert (dataclasses.asdict(fast_sys.run(ok))
            == dataclasses.asdict(ref_sys.run(ok)))
    assert core.accel_stats.engine_uops == before[0] + len(ok)


if __name__ == "__main__":
    WALK_PINS.write_text(
        json.dumps(compute_walk_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {WALK_PINS}")
