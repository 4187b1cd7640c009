"""The memory walk and the flat in-order loop, corner by corner.

``tests/accel/test_bitident.py`` holds the presets to their loop pins;
this file drives the places the presets rarely reach.  The port walk
(``TilePort.bind``) is held to ``walk_pins.json``, call by call and state
digest by state digest: the tail-appended timelines, the MSHR/in-flight
high-water marks, the per-set cache rows, the inlined TLB probe, the
prefetcher and the interleaved LLC slices.  The in-order loop's issue
classification is held across chunk boundaries, checkpoint/restore, four
lockstep tiles and a raising run to ``tests/core/loop_pins.json``:
results and every piece of captured state (LRU-ordered tag rows, dirty
sets, MSHR dicts, every timeline's ``_starts``/``_ends``, DRAM in-flight
queues, TLB sets), type for type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random

import pytest

from repro.accel import memo
from repro.accel.compile import compiled_trace
from repro.accel.stats import global_stats
from repro.mem.prefetch import PrefetcherConfig
from repro.mem.tlb import TLBConfig
from repro.reliability.checkpoint import _digest_update
from repro.soc.presets import get_config
from repro.soc.system import System
from repro.workloads.microbench import get_kernel

from ..core import loop_pins


#: per (variant, stream), first recorded from the reference ``TilePort``
#: methods the bound walk replaced; regenerate (only when the walk is
#: *meant* to change) with ``PYTHONPATH=src python -m tests.accel.test_flat_walk``
WALK_PINS = pathlib.Path(__file__).with_name("walk_pins.json")


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


#: captured state the walk pins leave out: TAGE's folded-history
#: registers joined the capture after the pins were recorded, and no
#: port walk touches a predictor (``tests/core/branch_pins.json`` and
#: ``test_tage_fold.py`` hold them)
_NOT_WALK_STATE = ("_fidx", "_ftag", "_ftag1")


def _state_digest(system, leave_out=()):
    """Type-strict digest (``2`` and ``2.0`` differ) of everything a
    checkpoint would capture, minus the cores' uop counters and the
    *leave_out* keys of the direction predictor."""
    tree = loop_pins.state(system)
    for tile in tree["tiles"]:
        for name in leave_out:
            tile["direction"].pop(name, None)
    h = hashlib.sha256()
    _digest_update(h, tree)
    return h.hexdigest()


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
                    "state": _state_digest(system, _NOT_WALK_STATE)})
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


# -- the in-order loop across run boundaries ----------------------------------------

@pytest.mark.parametrize("name", ["BananaPiSim", "BananaPi-K1"])
def test_whole_chunked_and_restored_runs(name):
    """One trace whole, in 2048-uop chunks, and in lockstep interrupted,
    checkpointed and resumed in a new System: results and captured state
    as pinned, and the resumed run ends where the uninterrupted one does."""
    simple, newline = compiled_trace(loop_pins.chunky_trace()).issue_flags()
    assert all(simple[2048:4096]) and not any(simple[4096:6144])
    assert newline[0] and not newline[2048] and not newline[4096]
    objs = loop_pins.check(f"chunked/{name}")
    assert not objs["restored/done_at_cut"]
    for part in ("result", "stats", "state"):
        assert (loop_pins.digest(objs[f"restored/{part}"])
                == loop_pins.digest(objs[f"lockstep/{part}"])), part


def test_four_tiles_in_lockstep_share_one_l2():
    loop_pins.check("four_tiles/BananaPi-K1")


# -- a run that raises ------------------------------------------------------------

def test_raising_run_credits_no_uops_and_still_detaches():
    """A vector op on a vector-less core raises mid-trace: the uop
    counters stay put, and the walk's locals are written back — what
    retired before the fault is in the components, timelines trimmed.
    The state it leaves and the next run from it are pinned."""
    system = System(get_config("BananaPiSim"))
    core = system.tiles[0].core
    before = (core.accel_stats.engine_uops, global_stats().engine_uops)
    with pytest.raises(ValueError, match="no vector unit"):
        system.run(loop_pins.no_vector_unit_trace())
    assert (core.accel_stats.engine_uops,
            global_stats().engine_uops) == before
    assert system.uncore.l2.stats.accesses > 1500
    for tl in _timelines(system):
        assert len(tl._starts) == len(tl._ends) <= tl.max_intervals
    ok = get_kernel("MC").build(scale=0.05)
    system.run(ok)
    assert core.accel_stats.engine_uops == before[0] + len(ok)
    objs = loop_pins.check("no_vector_unit/BananaPiSim")
    assert "no vector unit" in objs["error"]


if __name__ == "__main__":
    WALK_PINS.write_text(
        json.dumps(compute_walk_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {WALK_PINS}")
