"""Trace save/load tests."""

import pathlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.serialize import (TRACE_FORMAT_VERSION, decode_trace,
                                 encode_trace, load_trace, save_trace)
from repro.isa.trace import Trace, trace_digest
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
    assert [p.name for p in tmp_path.iterdir()] == ["cch.npz"]  # no temp


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


# -- v3: narrowed columns -----------------------------------------------------

DTYPES = [getattr(Trace.empty(), name).dtype for name in Trace.COLUMNS]
WIDTH_AT = HEADER.size  # the nine width bytes lead the decompressed body

U64_EDGES = [0, 1, 2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32,
             2**63, 2**64 - 1]
I16_EDGES = [-2**15, -2**15 + 1, -129, -128, -1, 0, 127, 128, 2**15 - 1]


def _values(dtype):
    if dtype == np.bool_:
        return st.booleans()
    info = np.iinfo(dtype)
    edges = {np.dtype(np.uint64): U64_EDGES, np.dtype(np.int16): I16_EDGES}
    return (st.sampled_from(edges.get(dtype, [info.min, info.max]))
            | st.integers(int(info.min), int(info.max)))


traces = st.integers(0, 12).flatmap(lambda n: st.tuples(*(
    st.lists(_values(dtype), min_size=n, max_size=n) for dtype in DTYPES
))).map(lambda cols: Trace(*(np.array(c, dtype=d)
                            for c, d in zip(cols, DTYPES))))


def _smallest_width(col):
    """The narrowest of 1/2/4/8 bytes of *col*'s kind holding all of it."""
    if col.dtype.itemsize == 1 or not len(col):
        return 1
    lo, hi = int(col.min()), int(col.max())
    for w in (1, 2, 4, 8):
        span = 2 ** (8 * w)
        least, most = ((-span // 2, span // 2 - 1) if col.dtype.kind == "i"
                       else (0, span - 1))
        if least <= lo and hi <= most:
            return w


def _pack(trace, widths):
    """A hand-laid encoding of *trace*: its columns at *widths* bytes each,
    two's complement little-endian written value by value (truncated when
    a width is too narrow), independent of the codec's own encoder."""
    body = bytearray(widths)
    for name, w in zip(Trace.COLUMNS, widths):
        for v in getattr(trace, name).tolist():
            body += (int(v) % 2 ** (8 * w)).to_bytes(w, "little")
    return (HEADER.pack(b"RTRC", TRACE_FORMAT_VERSION, len(trace),
                        trace_digest(trace).encode("ascii"))
            + zlib.compress(bytes(body)))


@settings(max_examples=200, deadline=None)
@given(traces)
def test_v3_roundtrip_is_bit_exact_at_the_narrowest_width(t):
    buf = encode_trace(t)
    widths = list(zlib.decompress(buf[WIDTH_AT:])[:len(DTYPES)])
    assert widths == [_smallest_width(getattr(t, name))
                      for name in Trace.COLUMNS]
    for back in (decode_trace(buf), decode_trace(_pack(t, widths))):
        assert back is not None and len(back) == len(t)
        for name in Trace.COLUMNS:
            col = getattr(back, name)
            assert col.dtype == getattr(t, name).dtype, name
            assert col.tobytes() == getattr(t, name).tobytes(), name
            assert not col.flags.writeable, name
        assert trace_digest(back) == trace_digest(t)


@settings(max_examples=50, deadline=None)
@given(traces, st.integers(0, len(DTYPES) - 1), st.sampled_from([0, 3, 16]))
def test_v3_bad_width_byte_is_rejected(t, column, bad):
    widths = list(zlib.decompress(encode_trace(t)[WIDTH_AT:])[:len(DTYPES)])
    widths[column] = bad
    assert decode_trace(_pack(t, widths)) is None


@pytest.mark.parametrize("column", Trace.COLUMNS)
def test_v3_width_wider_than_canonical_is_rejected(column):
    # laid out consistently, so only the width check can refuse it
    t = _trace()
    widths = [_smallest_width(getattr(t, name)) for name in Trace.COLUMNS]
    at = Trace.COLUMNS.index(column)
    assert decode_trace(_pack(t, widths)) is not None
    widths[at] = 2 * DTYPES[at].itemsize
    assert decode_trace(_pack(t, widths)) is None


#: four rows (ALU, load above 2**32, FMA, taken branch) in the v3 layout;
#: stored widths op 1, dst 1, src1 2, src2 1, addr 8, size 1, taken 1,
#: pc 4, target 4
PINNED_V3 = bytes.fromhex(
    "525452430300000004000000000000003031626434383033633534386565643138"
    "6162626364393866356462303466373833616165623738613430386563653731"
    "396530633965373138333264306433780163646462e4606464616164e16163e5"
    "d4f8afc3c8caa0c9f01f08b4fe33404167baab32238c8344730001900b946264"
    "6001620e20e601715100230300774a087b")
PINNED_V3_DIGEST = \
    "01bd4803c548eed18abbcd98f5db04f783aaeb78a408ece719e0c9e71832d0d3"


def test_pinned_v3_buffer_decodes_to_its_digest():
    # a layout change must bump TRACE_FORMAT_VERSION (and re-pin this)
    assert TRACE_FORMAT_VERSION == 3
    back = decode_trace(PINNED_V3)
    assert back is not None and trace_digest(back) == PINNED_V3_DIGEST
    assert back.src1.tolist() == [300, 5, 41, -1]
    assert back.addr.tolist() == [0, 0x1_2345_6789, 0, 0]
    assert back.pc.tolist() == [0x1_0000, 0x1_0004, 0x1_0008, 0x1_000C]


def test_v2_file_is_rejected_with_resave_message(tmp_path):
    # v2: no width bytes, every column at its full little-endian width
    t = _trace()
    body = b"".join(getattr(t, name).astype(d.newbyteorder("<")).tobytes()
                    for name, d in zip(Trace.COLUMNS, DTYPES))
    buf = (HEADER.pack(b"RTRC", 2, len(t), trace_digest(t).encode("ascii"))
           + zlib.compress(body, 1))
    assert decode_trace(buf) is None
    path = tmp_path / "v2.npz"
    path.write_bytes(buf)
    with pytest.raises(ValueError, match=(
            r"v2\.npz: trace format v2; this build reads v3; "
            r"re-save the trace with save_trace")):
        load_trace(path)
