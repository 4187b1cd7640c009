"""Branch predictor unit tests, through the components' ``bind``."""

import numpy as np
import pytest

from repro.core.branch import (
    BTB,
    BimodalBHT,
    BranchUnit,
    GShare,
    ReturnAddressStack,
    TAGE,
    boom_branch_unit,
    rocket_branch_unit,
)
from repro.isa.opcodes import OpClass

from ..conftest import btb_call, predict_update, resolve
from . import branch_pins

CALL, RET = int(OpClass.CALL), int(OpClass.RET)


def mispredict_rate(pred, outcomes, pc=0x1000):
    wrong = 0
    for t in outcomes:
        if predict_update(pred, pc, t) != t:
            wrong += 1
    return wrong / len(outcomes)


def test_bimodal_learns_bias():
    rate = mispredict_rate(BimodalBHT(64), [True] * 1000)
    assert rate < 0.01


def test_bimodal_alternating_is_bad():
    # strict alternation defeats a 2-bit counter
    outcomes = [bool(i % 2) for i in range(1000)]
    rate = mispredict_rate(BimodalBHT(64), outcomes)
    assert rate > 0.4


def test_gshare_learns_alternation():
    outcomes = [bool(i % 2) for i in range(2000)]
    rate = mispredict_rate(GShare(1024, hist_bits=8), outcomes)
    assert rate < 0.1


def test_random_is_unpredictable_for_all():
    rng = np.random.default_rng(42)
    outcomes = list(rng.random(2000) < 0.5)
    for pred in (BimodalBHT(512), GShare(1024), TAGE()):
        assert mispredict_rate(pred, outcomes) > 0.35


def test_tage_learns_long_patterns():
    # period-7 pattern: beyond bimodal, well within TAGE history reach
    pattern = [True, True, False, True, False, False, True]
    outcomes = pattern * 300
    tage_rate = mispredict_rate(TAGE(num_tables=4), outcomes)
    bimodal_rate = mispredict_rate(BimodalBHT(512), outcomes)
    assert tage_rate < bimodal_rate
    assert tage_rate < 0.1


def test_tage_beats_bimodal_on_correlated_branches():
    # outcome follows an LFSR over the previous 4 outcomes (x^4 + x + 1):
    # period-15 pseudo-noise, fully determined by history
    hist = [True, False, False, True]
    outcomes = []
    for _ in range(3000):
        t = hist[-4] ^ hist[-1]
        outcomes.append(t)
        hist.append(t)
    assert 0.3 < np.mean(outcomes) < 0.7  # pattern is non-degenerate
    tage_rate = mispredict_rate(TAGE(), outcomes)
    bimodal_rate = mispredict_rate(BimodalBHT(512), outcomes)
    assert tage_rate < bimodal_rate
    assert tage_rate < 0.05


def test_btb_basic():
    btb = BTB(entries=8, assoc=2)
    assert btb_call(btb, "lookup", 0x100) is None
    btb_call(btb, "insert", 0x100, 0x2000)
    assert btb_call(btb, "lookup", 0x100) == 0x2000


def test_btb_capacity_eviction():
    btb = BTB(entries=4, assoc=2)  # 2 sets x 2 ways
    # 3 pcs in the same set -> one must be evicted
    pcs = [0x0, 0x10, 0x20]  # (pc>>2) % 2 == 0 for all
    for pc in pcs:
        btb_call(btb, "insert", pc, pc + 0x1000)
    found = sum(btb_call(btb, "lookup", pc) is not None for pc in pcs)
    assert found == 2


def _ras_unit(depth):
    return BranchUnit(BimodalBHT(64), BTB(), ReturnAddressStack(depth))


def _push(bru, addr):
    """A call just before *addr*: the RAS pushes *addr*."""
    resolve(bru, CALL, addr - 4, True, 0x9000)


def _pops(bru, addr):
    """Whether a return predicts *addr* (it pops the RAS either way)."""
    return resolve(bru, RET, 0x9000, True, addr) == BranchUnit.CORRECT


def test_ras_lifo():
    bru = _ras_unit(depth=4)
    for a in (0x100, 0x200, 0x300):
        _push(bru, a)
    assert _pops(bru, 0x300)
    assert _pops(bru, 0x200)
    assert _pops(bru, 0x100)
    assert bru.ras._stack == []
    assert not _pops(bru, 0x100)  # an empty stack predicts nothing
    assert bru.stats.ras_mispredicts == 1


def test_ras_overflow_wraps():
    bru = _ras_unit(depth=2)
    for a in (0x100, 0x200, 0x300):
        _push(bru, a)
    assert _pops(bru, 0x300)
    assert _pops(bru, 0x200)
    assert not _pops(bru, 0x100)  # 0x100 was overwritten


def test_deep_recursion_defeats_shallow_ras():
    """CRd-style: 1000-deep recursion overflows a 6-entry RAS."""
    shallow = rocket_branch_unit(ras_depth=6)
    deep = boom_branch_unit(ras_depth=32)
    depth = 40
    for bru in (shallow, deep):
        # calls then returns
        for i in range(depth):
            resolve(bru, CALL, 0x100 + 8 * i, True, 0x5000 + 16 * i)
        for i in reversed(range(depth)):
            resolve(bru, RET, 0x5000 + 16 * i + 8, True, 0x100 + 8 * i + 4)
    assert shallow.stats.ras_mispredicts > deep.stats.ras_mispredicts


def test_branch_unit_flush_on_mispredict():
    bru = rocket_branch_unit()
    # untrained predictor predicts not-taken; a taken branch flushes
    kind = resolve(bru, int(OpClass.BRANCH), 0x100, True, 0x200)
    assert kind == BranchUnit.FLUSH


def test_branch_unit_correct_after_training():
    bru = rocket_branch_unit()
    for _ in range(8):
        resolve(bru, int(OpClass.BRANCH), 0x100, True, 0x200)
    kind = resolve(bru, int(OpClass.BRANCH), 0x100, True, 0x200)
    assert kind == BranchUnit.CORRECT


def test_branch_unit_jump_btb_warmup():
    bru = rocket_branch_unit()
    assert resolve(bru, int(OpClass.JUMP), 0x100, True, 0x900) == BranchUnit.BUBBLE
    assert resolve(bru, int(OpClass.JUMP), 0x100, True, 0x900) == BranchUnit.CORRECT


def test_predictor_validation():
    with pytest.raises(ValueError):
        BimodalBHT(100)  # not a power of two
    with pytest.raises(ValueError):
        ReturnAddressStack(0)
    with pytest.raises(ValueError):
        BTB(entries=7, assoc=2)


@pytest.mark.parametrize("name", ["unit/rocket", "unit/boom"])
def test_branch_unit_matches_pins(name):
    """Bubbles, stale indirect targets, RAS overflow and returns on an
    empty stack, call by call and state by state over three binds."""
    assert branch_pins.drive(name)[1] == branch_pins.load_branch_pins()[name]
