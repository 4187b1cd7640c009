"""Golden trace digests: every generator must stay byte-identical.

``golden_trace_digests.json`` was written from the per-uop (scalar
``TraceBuilder``) generators; the column-at-a-time generators are held
to it uop for uop.  Regenerate (only when a trace is *meant* to change)
with ``PYTHONPATH=src python tests/workloads/test_golden_traces.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.accel import memo
from repro.isa.opcodes import OpClass
from repro.workloads.base import PhaseEmitter
from repro.workloads.microbench import runnable_kernels
from repro.workloads.microbench.vectorbench import VECTOR_TWINS

GOLDEN = pathlib.Path(__file__).with_name("golden_trace_digests.json")
SCALES = (0.05, 0.2, 1.0)
SEEDS = (0, 7)


def rng_canary() -> str:
    """Digest of the draws the seeded kernels are made of: a numpy whose
    bit stream differs changes this, and only the seeded kernels skip."""
    h = hashlib.sha256()
    h.update(np.random.default_rng(7).permutation(64).astype(np.int64).tobytes())
    h.update(np.random.default_rng(7).integers(0, 2, 64).astype(np.int64).tobytes())
    return h.hexdigest()


def _entry(trace) -> dict:
    return {"len": len(trace), "digest": memo.trace_digest(trace)}


def _kernels() -> dict:
    kernels = runnable_kernels() + [cls() for cls in VECTOR_TWINS.values()]
    return {k.spec.name: k for k in kernels}


def kernel_entries(kernel) -> dict:
    return {f"s{scale}/seed{seed}": _entry(kernel.build(scale=scale, seed=seed))
            for scale in SCALES for seed in SEEDS}


# -- the PhaseEmitter grid ----------------------------------------------------

_LOADS = (0x1000_0000 + np.arange(120) * 24).astype(np.uint64)
_STORES = (0x2000_0000 + np.arange(45) * 8).astype(np.uint64)
PHASE_SHAPES = {
    "loads": {"loads": _LOADS},
    "stores": {"stores": _STORES},
    "both": {"loads": _LOADS, "stores": _STORES},
}
PHASE_ELEMS = (None, 0, 37, 300)
_FP = (0.0, 0.5, 1.5, 2.25)
_INT = (0.0, 0.75, 2.0)


def phase_entries(shape: str, elems) -> dict:
    out = {}
    for fp, ints, chain in itertools.product(_FP, _INT, (False, True)):
        trace = PhaseEmitter().emit(
            fp_per_elem=fp, int_per_elem=ints, fp_chain=chain, elems=elems,
            fp_op=OpClass.FP_ADD if chain else OpClass.FP_FMA,
            **PHASE_SHAPES[shape])
        out[f"fp{fp}/int{ints}/chain{int(chain)}"] = _entry(trace)
    return out


def compute() -> dict:
    return {
        "rng_canary": rng_canary(),
        "kernels": {name: kernel_entries(k) for name, k in _kernels().items()},
        "phase": {f"{shape}/elems{elems}": phase_entries(shape, elems)
                  for shape in PHASE_SHAPES for elems in PHASE_ELEMS},
    }


# -- tests --------------------------------------------------------------------

_golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _seeded(name: str) -> bool:
    """A kernel draws from its rng iff its golden trace depends on the seed."""
    want = _golden["kernels"][name]
    return any(want[f"s{s}/seed0"] != want[f"s{s}/seed7"] for s in SCALES)


def test_golden_covers_the_suite():
    assert sorted(_golden["kernels"]) == sorted(_kernels())
    assert len(_golden["kernels"]) == 39 + 2


@pytest.mark.parametrize("name", sorted(_kernels()))
def test_kernel_traces_match_golden(name):
    if _seeded(name) and rng_canary() != _golden["rng_canary"]:
        pytest.skip("this numpy's Generator stream differs from the golden one")
    assert kernel_entries(_kernels()[name]) == _golden["kernels"][name]


@pytest.mark.parametrize("elems", PHASE_ELEMS)
@pytest.mark.parametrize("shape", sorted(PHASE_SHAPES))
def test_phase_emitter_matches_golden(shape, elems):
    assert phase_entries(shape, elems) == _golden["phase"][f"{shape}/elems{elems}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
