"""Trace save/load tests."""

import pathlib

import numpy as np
import pytest

from repro.isa.serialize import load_trace, save_trace
from repro.workloads.microbench import get_kernel


def test_roundtrip(tmp_path):
    t = get_kernel("CCh").build(scale=0.05, seed=3)
    path = tmp_path / "cch.npz"
    save_trace(t, path)
    back = load_trace(path)
    assert len(back) == len(t)
    for f in ("op", "dst", "src1", "src2", "addr", "size", "taken", "pc",
              "target"):
        assert np.array_equal(getattr(back, f), getattr(t, f)), f


def test_path_without_suffix_roundtrips(tmp_path):
    # numpy appends ".npz" on save; load must resolve the same file
    t = get_kernel("EI").build(scale=0.05)
    for path in (tmp_path / "foo", str(tmp_path / "bar")):
        save_trace(t, path)
        assert pathlib.Path(str(path) + ".npz").exists()
        assert np.array_equal(load_trace(path).pc, t.pc)
        assert np.array_equal(load_trace(str(path) + ".npz").pc, t.pc)


def test_loaded_trace_times_identically(tmp_path):
    from repro.soc import ROCKET1, System

    t = get_kernel("MD").build(scale=0.05)
    path = tmp_path / "md.npz"
    save_trace(t, path)
    back = load_trace(path)
    c1 = System(ROCKET1).run(t).cycles
    c2 = System(ROCKET1).run(back).cycles
    assert c1 == c2


def test_bad_version_rejected(tmp_path):
    import numpy as np

    path = tmp_path / "bad.npz"
    np.savez(path, __version__=np.int64(99))
    with pytest.raises(ValueError):
        load_trace(path)


def test_missing_fields_rejected(tmp_path):
    path = tmp_path / "partial.npz"
    np.savez(path, __version__=np.int64(1), op=np.zeros(3, np.uint8))
    with pytest.raises(ValueError):
        load_trace(path)
