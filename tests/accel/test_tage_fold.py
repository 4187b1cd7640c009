"""The accelerated TAGE keeps incrementally folded history registers in
place of re-folding the history per lookup.  ``core.branch.TAGE`` (its
``_fold`` untouched) is the oracle: same predictions, same tables, same
``_hist`` — over geometries the presets never reach, and across every
way a run can be cut into attaches (chunked runs, checkpoint/restore
into a new ``System``), since the registers are re-derived per attach.
The other predictor kinds' fused ``predict_update`` is held to the same
predict-then-update oracle."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.accel.engine import _mirror_direction
from repro.core.branch import TAGE, BimodalBHT, GShare
from repro.reliability import SimCheckpoint
from repro.soc.presets import get_config
from repro.soc.system import System
from repro.workloads.microbench import get_kernel


def _tables(d: TAGE) -> dict:
    return {"ctr": [row[:] for row in d._ctr],
            "tag": [row[:] for row in d._tag],
            "useful": [row[:] for row in d._useful],
            "base": d.base._ctr[:],
            "hist": d._hist}


def _stream(rng: random.Random, n: int) -> list[tuple[int, bool]]:
    """A loop of a few dozen branches repeated with 3% of outcomes flipped:
    the history window recurs, so long-history entries hit again, and the
    flips make providers mispredict, allocate upward and decay usefulness."""
    pcs = [0x1_0000 + 4 * rng.randrange(1 << 14) for _ in range(8)]
    loop = [(rng.choice(pcs), rng.random() < 0.6)
            for _ in range(rng.randrange(20, 90))]
    return [(pc, taken != (rng.random() < 0.03))
            for pc, taken in (loop[i % len(loop)] for i in range(n))]


@pytest.mark.parametrize("max_hist", [64, 128])
@pytest.mark.parametrize("tag_bits", [8, 9, 10])
@pytest.mark.parametrize("table_bits", [9, 10, 11])
@pytest.mark.parametrize("num_tables", [1, 4, 6])
def test_folded_registers_match_reference(num_tables, table_bits, tag_bits,
                                          max_hist):
    """hist_len > 64 (capped window), window % width == 0 and window <
    width all occur in this grid; the starting history is non-zero."""
    geometry = dict(num_tables=num_tables, table_bits=table_bits,
                    tag_bits=tag_bits, max_hist=max_hist, base_entries=256)
    rng = random.Random(repr(sorted(geometry.items())))
    ref, acc = TAGE(**geometry), TAGE(**geometry)
    ref._hist = acc._hist = rng.getrandbits(64)
    for t in range(num_tables):  # in-use entries push allocation upward
        ref._useful[t][:] = rng.choices((0, 0, 1, 2), k=ref.size)
        acc._useful[t][:] = ref._useful[t]
    stream = _stream(rng, 3000)
    # three attaches over one stream: registers re-derived from ``_hist``
    for part in (stream[:700], stream[700:701], stream[701:]):
        predict_update, detach = _mirror_direction(acc)
        for pc, taken in part:
            want = ref.predict(pc)
            ref.update(pc, taken)
            assert predict_update(pc, taken) == want
        detach()
        assert _tables(acc) == _tables(ref)
    assert max(ref._tag[-1]) >= 0, "longest table never allocated"
    assert vars(acc).keys() == vars(ref).keys()  # nothing cached on it


@pytest.mark.parametrize("make", [
    lambda: BimodalBHT(64), lambda: GShare(128, hist_bits=7)],
    ids=["bimodal", "gshare"])
def test_predict_update_is_predict_then_update(make):
    ref, acc = make(), make()
    predict_update, detach = _mirror_direction(acc)
    for pc, taken in _stream(random.Random(5), 2000):
        want = ref.predict(pc)
        ref.update(pc, taken)
        assert predict_update(pc, taken) == want
    if detach is not None:
        detach()
    assert acc._ctr == ref._ctr
    assert getattr(acc, "_hist", None) == getattr(ref, "_hist", None)


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
            system.restore(ckpt, None)  # a new System: registers re-derived
    bru = system.tiles[0].core.bru
    return results, _tables(bru.direction), dataclasses.asdict(bru.stats)


@pytest.mark.parametrize("name", ["LargeBOOM", "MILKV-SG2042"])
def test_registers_rederived_at_every_attach(name):
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
