"""TAGE keeps incrementally folded history registers as state in place
of re-folding the history per lookup.  ``tests/core/branch_pins.json``
(recorded from the reference ``predict``/``update`` that re-folded
``_hist`` per lookup) is the oracle: same predictions, same tables,
same ``_hist`` over geometries the presets never reach and over three
binds, and after each the registers are the fold of ``_hist``.  The
engine is also held to the reference loop across every way a run can
be cut into binds (chunked runs, checkpoint/restore into a new
``System``), which the registers must survive.  The other predictor
kinds' fused ``predict_update`` is held to the same pins."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.branch import TAGE
from repro.reliability import SimCheckpoint
from repro.soc.presets import get_config
from repro.soc.system import System
from repro.workloads.microbench import get_kernel

from ..core import branch_pins

_pinned = branch_pins.load_branch_pins()


def _tables(d: TAGE) -> dict:
    return {"ctr": [row[:] for row in d._ctr],
            "tag": [row[:] for row in d._tag],
            "useful": [row[:] for row in d._useful],
            "base": d.base._ctr[:],
            "hist": d._hist,
            "folded": (d._fidx[:], d._ftag[:], d._ftag1[:])}


def _fold(hist: int, window: int, width: int) -> int:
    """The window's low *window* bits of *hist*, XOR-folded to *width*."""
    h = hist & ((1 << window) - 1)
    folded = 0
    while h:
        folded ^= h & ((1 << width) - 1)
        h >>= width
    return folded


@pytest.mark.parametrize("max_hist", [64, 128])
@pytest.mark.parametrize("tag_bits", [8, 9, 10])
@pytest.mark.parametrize("table_bits", [9, 10, 11])
@pytest.mark.parametrize("num_tables", [1, 4, 6])
def test_folded_registers_match_reference(num_tables, table_bits, tag_bits,
                                          max_hist):
    """Prediction by prediction and table by table against the pins,
    over three binds of one stream that starts from an empty history."""
    name = branch_pins.tage_case(dict(
        num_tables=num_tables, table_bits=table_bits, tag_bits=tag_bits,
        max_hist=max_hist, base_entries=256))
    d, got = branch_pins.drive(name)
    assert got == _pinned[name]
    assert max(d._tag[-1]) >= 0, "longest table never allocated"
    assert vars(d).keys() == vars(TAGE()).keys()  # nothing cached on it
    windows = [min(n, 64) for n in d.hist_len]
    index_bits = d.size.bit_length() - 1
    assert d._fidx == [_fold(d._hist, L, index_bits) for L in windows]
    assert d._ftag == [_fold(d._hist, L, tag_bits) for L in windows]
    assert d._ftag1 == [_fold(d._hist, L, tag_bits - 1) for L in windows]


@pytest.mark.parametrize("name", ["bimodal64", "gshare128x7"],
                         ids=["bimodal", "gshare"])
def test_predict_update_is_predict_then_update(name):
    assert branch_pins.drive(name)[1] == _pinned[name]


def _run_cut(cfg, trace, cuts, restore=False) -> tuple:
    """Run ``trace`` in the pieces ``cuts`` delimits; with *restore*, move
    to a new ``System`` through a checkpoint after the first piece."""
    system = System(cfg)
    results = []
    for a, b in zip(cuts, cuts[1:]):
        results.append(dataclasses.asdict(system.run(trace[a:b])))
        if restore and a == cuts[0]:
            ckpt = SimCheckpoint.from_bytes(system.save_checkpoint().to_bytes())
            system = System(cfg)
            system.restore(ckpt, None)  # a new System: registers restored
    bru = system.tiles[0].core.bru
    return results, _tables(bru.direction), dataclasses.asdict(bru.stats)


@pytest.mark.parametrize("name", ["LargeBOOM", "MILKV-SG2042"])
def test_folded_registers_survive_every_cut(name):
    trace = get_kernel("CCh").build(scale=0.1, seed=3)
    n = len(trace)
    cuts = [0, n // 3 + 1, 2 * n // 3 + 2, n]
    shapes = {"straight": ([0, n], False), "chunked": (cuts, False),
              "restored": (cuts, True)}
    got = {}
    for shape, args in shapes.items():
        got[shape], ref = (_run_cut(get_config(name).with_(accel=mode), trace,
                                    *args) for mode in ("on", "off"))
        assert got[shape] == ref, shape
    # however the run is cut, the predictor saw one branch stream
    assert got["straight"][1:] == got["chunked"][1:]
    assert got["chunked"] == got["restored"]
