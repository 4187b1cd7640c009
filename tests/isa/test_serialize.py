"""Trace save/load tests."""

import pathlib
import struct
import zlib

import numpy as np
import pytest

from repro.isa.serialize import (TRACE_FORMAT_VERSION, decode_trace,
                                 encode_trace, load_trace, save_trace)
from repro.isa.trace import trace_digest
from repro.workloads.microbench import get_kernel

#: magic, version, row count, digest — the encoded form's fixed header
HEADER = struct.Struct("<4sIQ64s")


def _trace():
    return get_kernel("CCh").build(scale=0.05, seed=3)


def test_roundtrip(tmp_path):
    t = _trace()
    path = tmp_path / "cch.npz"
    save_trace(t, path)
    back = load_trace(path)
    assert len(back) == len(t)
    for f in ("op", "dst", "src1", "src2", "addr", "size", "taken", "pc",
              "target"):
        assert np.array_equal(getattr(back, f), getattr(t, f)), f
        assert getattr(back, f).dtype == getattr(t, f).dtype, f
    assert trace_digest(back) == trace_digest(t)
    assert not list(tmp_path.glob(".trace-*"))  # no temp file left behind


def test_path_without_suffix_roundtrips(tmp_path):
    # ".npz" is appended on save; load must resolve the same file
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


def test_empty_trace_roundtrips():
    from repro.isa.trace import Trace

    back = decode_trace(encode_trace(Trace.empty()))
    assert back is not None and len(back) == 0


def test_bad_version_rejected(tmp_path):
    buf = bytearray(encode_trace(_trace()))
    struct.pack_into("<I", buf, 4, 99)
    assert decode_trace(bytes(buf)) is None
    path = tmp_path / "bad.npz"
    path.write_bytes(bytes(buf))
    with pytest.raises(ValueError, match=f"v{TRACE_FORMAT_VERSION}"):
        load_trace(path)


def test_missing_fields_rejected(tmp_path):
    # a header that claims more rows than the body holds
    t = _trace()
    magic, version, n, digest = HEADER.unpack_from(encode_trace(t))
    buf = encode_trace(t)
    bad = HEADER.pack(magic, version, n + 1, digest) + buf[HEADER.size:]
    assert decode_trace(bad) is None
    path = tmp_path / "partial.npz"
    path.write_bytes(bad)
    with pytest.raises(ValueError):
        load_trace(path)


def test_v1_npz_is_rejected_with_resave_message(tmp_path):
    t = _trace()
    path = tmp_path / "old.npz"
    np.savez_compressed(path, __version__=np.int64(1),
                        **{name: getattr(t, name) for name in t.COLUMNS})
    with pytest.raises(ValueError, match="v1 npz.*re-save"):
        load_trace(path)


def test_truncated_file_is_rejected(tmp_path):
    buf = encode_trace(_trace())
    for cut in (len(buf) - 1, len(buf) // 2, HEADER.size, 10, 0):
        assert decode_trace(buf[:cut]) is None, cut
    path = tmp_path / "cut.npz"
    path.write_bytes(buf[:len(buf) // 2])
    with pytest.raises(ValueError):
        load_trace(path)


def test_flipped_body_byte_is_rejected():
    buf = bytearray(encode_trace(_trace()))
    buf[HEADER.size + (len(buf) - HEADER.size) // 2] ^= 0x01
    assert decode_trace(bytes(buf)) is None


def test_flipped_digest_nibble_is_rejected():
    buf = bytearray(encode_trace(_trace()))
    at = HEADER.size - 1  # last hex digit of the stamped digest
    buf[at] = ord("0") if buf[at] != ord("0") else ord("1")
    assert decode_trace(bytes(buf)) is None


def test_recompressed_altered_body_is_rejected():
    # a body that decompresses cleanly to the right length but different
    # columns: only the re-hash can catch it
    t = _trace()
    buf = encode_trace(t)
    body = bytearray(zlib.decompress(buf[HEADER.size:]))
    body[-1] ^= 0x01
    assert decode_trace(buf[:HEADER.size] + zlib.compress(bytes(body))) is None
