"""TAGE keeps incrementally folded history registers as state in place
of re-folding the history per lookup.  ``tests/core/branch_pins.json``
(recorded from the reference ``predict``/``update`` that re-folded
``_hist`` per lookup) is the oracle: same predictions, same tables,
same ``_hist`` over geometries the presets never reach and over three
binds, and after each the registers are the fold of ``_hist``.  Runs
cut into binds every way (chunked, checkpoint/restore into a new
``System``) are held to ``tests/core/loop_pins.json``, which the
registers must survive.  The other predictor kinds' fused
``predict_update`` is held to the same pins."""

from __future__ import annotations

import pytest

from repro.core.branch import TAGE

from ..core import branch_pins, loop_pins

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


@pytest.mark.parametrize("name", ["LargeBOOM", "MILKV-SG2042"])
def test_folded_registers_survive_every_cut(name):
    """CCh run straight, in three binds, and restored into a new System
    after the first: results, tables, registers and branch stats as
    pinned, and one branch stream however the run is cut."""
    got = loop_pins.check(f"tage_cuts/{name}")
    for part in ("tables", "branch_stats"):
        assert got[f"straight/{part}"] == got[f"chunked/{part}"], part
    for part in ("results", "tables", "branch_stats"):
        assert got[f"chunked/{part}"] == got[f"restored/{part}"], part
