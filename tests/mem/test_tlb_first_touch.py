"""TLB sets are made by their first miss, as cache rows are.

An unmade set is None.  It must read everywhere as the empty set an
eagerly built TLB would hold: in a checkpoint's bytes and digest, in a
restore and in the invariant audit.
"""

from collections import OrderedDict

import pytest

from repro.mem.tlb import TwoLevelTLB
from repro.reliability.checkpoint import SimCheckpoint, audit_checkpoint
from repro.soc import System, get_config
from repro.workloads.microbench import get_kernel


def _tlbs(tile):
    """A tile's single-level TLBs (a two-level one's both levels)."""
    for tlb in (tile.port.itlb, tile.port.dtlb):
        yield from ((tlb.l1, tlb.l2) if type(tlb) is TwoLevelTLB else (tlb,))


def _made(tile) -> int:
    return sum(s is not None for tlb in _tlbs(tile) for s in tlb._sets)


def _make_every_set(system) -> None:
    """What an eager build holds: every unmade set an empty one."""
    for tile in system.tiles:
        for tlb in _tlbs(tile):
            tlb._sets[:] = [OrderedDict() if s is None else s
                            for s in tlb._sets]


def _ei_run(cfg):
    system = System(cfg)
    system.run(get_kernel("EI").build(scale=0.05, seed=0))
    return system


@pytest.mark.parametrize("name", ["LargeBOOM", "MILKV-SG2042"])
def test_a_fresh_system_makes_no_tlb_set(name):
    system = System(get_config(name))
    assert len(system.tiles) == 4
    assert type(system.tiles[0].port.dtlb) is TwoLevelTLB
    assert not any(_made(tile) for tile in system.tiles)


@pytest.mark.parametrize("name", ["LargeBOOM", "MILKV-SG2042"])
def test_idle_tiles_keep_their_tlb_sets_unmade(name):
    system = _ei_run(get_config(name))
    assert _made(system.tiles[0]) > 0          # instruction fetch
    assert [_made(tile) for tile in system.tiles[1:]] == [0, 0, 0]


@pytest.mark.parametrize("name", ["LargeBOOM", "BananaPi-K1"])
def test_a_capture_reads_as_the_eager_sets_would(name):
    cfg = get_config(name)
    lazy, eager = _ei_run(cfg), _ei_run(cfg)
    _make_every_set(eager)
    a, b = lazy.save_checkpoint(), eager.save_checkpoint()
    assert a.digest == b.digest
    assert a.to_bytes() == b.to_bytes()
    assert any(s is None for s in lazy.tiles[1].port.itlb._sets)


def _unmade(ckpt) -> SimCheckpoint:
    """*ckpt* with every empty TLB set unmade, resealed."""
    for ts in ckpt.state["tiles"]:
        tlbs = [ts["itlb"]["_sets"]]
        dtlb = ts["dtlb"]
        tlbs += ([dtlb["l1"]._sets, dtlb["l2"]._sets] if "l1" in dtlb
                 else [dtlb["_sets"]])
        for sets in tlbs:
            sets[:] = [s or None for s in sets]
    ckpt.digest = ckpt.compute_digest()
    return ckpt


@pytest.mark.parametrize("name", ["LargeBOOM", "Rocket1"])
def test_restore_and_audit_accept_unmade_sets(name):
    cfg = get_config(name)
    trace = get_kernel("MM").build(scale=0.05, seed=0)
    donor = System(cfg)
    donor.run(trace)
    blob = donor.save_checkpoint().to_bytes()
    eager = SimCheckpoint.from_bytes(blob)
    lazy = _unmade(SimCheckpoint.from_bytes(blob))
    assert lazy.state["tiles"][1]["itlb"]["_sets"] == [None]
    lazy.audit(System(cfg))                     # raises on a problem
    runs = []
    for ckpt in (eager, lazy):
        system = System(cfg)
        system.restore(ckpt)
        runs.append((system.run(trace), system.save_checkpoint().digest))
    assert runs[0] == runs[1]


def test_the_audit_skips_unmade_sets_and_still_counts_full_ones():
    system = _ei_run(get_config("Rocket1"))
    ckpt = _unmade(system.save_checkpoint())
    sets = ckpt.state["tiles"][0]["itlb"]["_sets"]
    sets[0] = OrderedDict((vpn, True) for vpn in range(40))   # 32-way
    problems = [p for p in audit_checkpoint(ckpt) if "tlb" in p]
    assert problems == ["tile0.itlb: set 0 holds 40 entries (assoc 32)"]
