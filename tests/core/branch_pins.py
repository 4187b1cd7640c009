"""Pinned behaviour of the branch unit, call by call.

Every case is a predictor or a whole branch unit driven by its own
stream, cut into three binds.  Per bind, ``branch_pins.json`` holds the
sha-256 of every call's ``(return value, type)`` and the type-strict
digest of the state after it closes: the counter, tag and usefulness
tables, the global history, the BTB rows and use stamp, the RAS stack
and the branch statistics.  The cases are the 54 TAGE geometries of
``tests/accel/test_tage_fold.py``, a bimodal and a gshare table, and an
op mix on the Rocket and BOOM front ends that reaches BTB-miss bubbles,
stale indirect targets, RAS overflow and returns on an empty stack.

The pins were first recorded from the reference ``predict``/``update``
and ``BranchUnit.resolve`` bodies the binders replaced.  Regenerate
them (only when the branch unit is *meant* to change) with
``PYTHONPATH=src python tests/core/branch_pins.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random

from repro.core.branch import (
    TAGE,
    BimodalBHT,
    BranchUnit,
    GShare,
    boom_branch_unit,
    rocket_branch_unit,
)
from repro.isa.opcodes import OpClass
from repro.reliability.checkpoint import _digest_update

BRANCH_PINS = pathlib.Path(__file__).with_name("branch_pins.json")

_BRANCH, _JUMP = int(OpClass.BRANCH), int(OpClass.JUMP)
_CALL, _RET = int(OpClass.CALL), int(OpClass.RET)

#: the TAGE grid: hist_len > 64 (capped window), window % width == 0
#: and window < width all occur in it
TAGE_GRID = [dict(num_tables=nt, table_bits=tb, tag_bits=gb, max_hist=mh,
                  base_entries=256)
             for nt, tb, gb, mh in itertools.product(
                 (1, 4, 6), (9, 10, 11), (8, 9, 10), (64, 128))]


def tage_case(geometry: dict) -> str:
    return ("tage/{num_tables}x{table_bits}/tag{tag_bits}/hist{max_hist}"
            .format(**geometry))


def direction_stream(rng: random.Random, n: int) -> list[tuple[int, bool]]:
    """A loop of a few dozen branches repeated with 3% of outcomes flipped:
    the history window recurs, so long-history entries hit again, and the
    flips make providers mispredict, allocate upward and decay usefulness."""
    pcs = [0x1_0000 + 4 * rng.randrange(1 << 14) for _ in range(8)]
    loop = [(rng.choice(pcs), rng.random() < 0.6)
            for _ in range(rng.randrange(20, 90))]
    return [(pc, taken != (rng.random() < 0.03))
            for pc, taken in (loop[i % len(loop)] for i in range(n))]


def unit_stream(rng: random.Random, n: int) -> list[tuple]:
    """``(op, pc, taken, target)`` control ops: conditional branches over
    more PCs than a small BTB holds, direct jumps, indirect jumps and
    calls whose target changes, call/return nests up to 40 deep, returns
    with a wrong target and runs of returns that drain the stack, and a
    few non-control ops."""
    br_pcs = [0x4000 + 8 * rng.randrange(1 << 12) for _ in range(48)]
    jmp_pcs = [0x9_0000 + 8 * rng.randrange(1 << 10) for _ in range(12)]
    ind_pcs = [0xA_0000 + 8 * i for i in range(4)]
    ind_targets = [0xB_0000 + 0x40 * i for i in range(3)]
    out: list[tuple] = []
    while len(out) < n:
        r = rng.random()
        if r < 0.7:
            pc = rng.choice(br_pcs)
            taken = (pc >> 3) % 3 != 0
            out.append((_BRANCH, pc, taken != (rng.random() < 0.1), pc + 0x40))
        elif r < 0.78:
            pc = rng.choice(jmp_pcs)
            out.append((_JUMP, pc, True, pc + 0x100))
        elif r < 0.86:
            out.append((rng.choice((_JUMP, _CALL)), rng.choice(ind_pcs), True,
                        rng.choice(ind_targets)))
        elif r < 0.89:
            depth = rng.randrange(1, 41)
            sites = [0xC_0000 + 16 * rng.randrange(1 << 8) for _ in range(depth)]
            out += [(_CALL, pc, True, 0xD_0000 + 0x20 * k)
                    for k, pc in enumerate(sites)]
            out += [(_RET, 0xD_0000 + 0x20 * k + 8, True, pc + 4)
                    for k, pc in reversed(list(enumerate(sites)))]
        elif r < 0.95:
            out.append((_RET, 0xE_0000, True, rng.choice(ind_targets)))
        elif r < 0.96:
            out += [(_RET, 0xE_0100, True, 0xF_0000)] * 40
        else:
            out.append((int(OpClass.INT_ALU), 0xE_0200, False, 0))
    return out[:n]


def _make_tage(geometry: dict):
    rng = random.Random(repr(sorted(geometry.items())))
    d = TAGE(**geometry)
    for t in range(d.num_tables):  # in-use entries push allocation upward
        d._useful[t][:] = rng.choices((0, 0, 1, 2), k=d.size)
    return d, direction_stream(rng, 3000)


#: case name -> () -> (predictor or branch unit, its stream)
CASES = {tage_case(g): (lambda g=g: _make_tage(g)) for g in TAGE_GRID}
CASES["bimodal64"] = lambda: (BimodalBHT(64),
                              direction_stream(random.Random(5), 2000))
CASES["gshare128x7"] = lambda: (GShare(128, hist_bits=7),
                                direction_stream(random.Random(5), 2000))
CASES["unit/rocket"] = lambda: (rocket_branch_unit(),
                                unit_stream(random.Random(11), 4000))
CASES["unit/boom"] = lambda: (boom_branch_unit(),
                              unit_stream(random.Random(12), 4000))


def _direction_state(d) -> dict:
    state = {k: getattr(d, k) for k in ("_ctr", "_tag", "_useful", "_hist")
             if hasattr(d, k)}
    if hasattr(d, "base"):  # TAGE's bimodal
        state["base"] = d.base._ctr
    return state


def state_digest(obj) -> str:
    """Type-strict digest of a predictor's or branch unit's state."""
    if isinstance(obj, BranchUnit):
        btb = obj.btb
        state = {"direction": _direction_state(obj.direction),
                 "btb": {"_tag": btb._tag, "_target": btb._target,
                         "_lru": btb._lru, "_stamp": btb._stamp},
                 "ras": obj.ras._stack, "stats": obj.stats}
    else:
        state = _direction_state(obj)
    h = hashlib.sha256()
    _digest_update(h, state)
    return h.hexdigest()


def drive(name: str):
    """Run case *name* over three binds; returns the predictor (or unit)
    and, per bind, the calls' digest and the state digest after close."""
    obj, stream = CASES[name]()
    out = []
    for part in (stream[:700], stream[700:701], stream[701:]):
        call, close = obj.bind()
        h = hashlib.sha256()
        try:
            for args in part:
                got = call(*args)
                h.update(repr((got, type(got).__name__)).encode())
        finally:
            close()
        out.append({"calls": h.hexdigest(), "state": state_digest(obj)})
    return obj, out


def compute_branch_pins() -> dict:
    return {name: drive(name)[1] for name in CASES}


def load_branch_pins() -> dict:
    return json.loads(BRANCH_PINS.read_text()) if BRANCH_PINS.exists() else {}


if __name__ == "__main__":
    BRANCH_PINS.write_text(
        json.dumps(compute_branch_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {BRANCH_PINS}")
