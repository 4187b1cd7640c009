"""Trace serialization: one binary codec for trace files and store payloads.

Traces are the interchange format between workload generation and timing
(like the instruction traces FireSim users capture with TracerV); saving
them makes runs reproducible and lets expensive generators (the MPI apps,
the interpreter) run once.

The encoded form is a fixed header — magic, :data:`TRACE_FORMAT_VERSION`,
row count, the 64-hex content digest — followed by ``zlib`` level 1 of a
body: nine width bytes, then the nine columns concatenated in
:attr:`Trace.COLUMNS` order.  Each column is stored little-endian at the
narrowest width of its own kind (1, 2, 4 or 8 bytes; unsigned, or signed
for the ``int16`` register columns) that holds its min..max, and its
width byte says which: across the microbench suite every address, PC
and target column fits in 4 of its 8 bytes and every register column in
1 of its 2.  Decoding widens every column back to its canonical dtype and
trusts nothing in the header: the columns are re-hashed and a digest
mismatch rejects the buffer.
"""

from __future__ import annotations

import pathlib
import struct
import zlib

import numpy as np

from .._atomic import atomic_write
from .trace import _COLUMN_DTYPES, Trace, trace_digest

__all__ = ["save_trace", "load_trace", "encode_trace", "decode_trace",
           "TRACE_FORMAT_VERSION"]

TRACE_FORMAT_VERSION = 3

_MAGIC = b"RTRC"
#: magic, format version, row count, hex sha-256 of the columns
_HEADER = struct.Struct("<4sIQ64s")
_CANONICAL = [np.dtype(d) for d in _COLUMN_DTYPES]
_WIDTHS = (1, 2, 4, 8)
#: per integer kind, each storable width with the least and most it holds
_RANGES = {kind: [(w, int(np.iinfo(f"{kind}{w}").min),
                   int(np.iinfo(f"{kind}{w}").max)) for w in _WIDTHS]
           for kind in "iu"}


def _narrowed(col: np.ndarray) -> np.ndarray:
    """*col* little-endian at the narrowest width of its own kind that
    holds its min..max (an empty column takes the narrowest)."""
    kind, width = col.dtype.kind, 1
    if col.dtype.itemsize > 1 and len(col):
        lo = int(col.min()) if kind == "i" else 0
        hi = int(col.max())
        width = next(w for w, least, most in _RANGES[kind]
                     if least <= lo and hi <= most)
    return col.astype(f"<{kind}{width}", copy=False)


def encode_trace(trace: Trace) -> bytes:
    """*trace* as header + compressed body (see the module docstring)."""
    columns = [_narrowed(getattr(trace, name)) for name in Trace.COLUMNS]
    z = zlib.compressobj(1)
    body = [z.compress(bytes(col.itemsize for col in columns))]
    body += [z.compress(memoryview(col).cast("B")) for col in columns]
    body.append(z.flush())
    header = _HEADER.pack(_MAGIC, TRACE_FORMAT_VERSION, len(trace),
                          trace_digest(trace).encode("ascii"))
    return header + b"".join(body)


def decode_trace(buf: bytes) -> Trace | None:
    """The trace *buf* encodes, or None when its magic, version, a column
    width, the body length or the content digest is wrong.

    A width byte must be 1, 2, 4 or 8 and no wider than its column's
    canonical dtype.  Columns come back at their canonical dtypes and
    read-only: a full-width column is a view over the decompressed body,
    a narrowed one a widened copy."""
    if len(buf) < _HEADER.size:
        return None
    magic, version, n, digest = _HEADER.unpack_from(buf)
    if magic != _MAGIC or version != TRACE_FORMAT_VERSION:
        return None
    try:
        body = zlib.decompress(memoryview(buf)[_HEADER.size:])
    except zlib.error:
        return None
    widths = body[:len(_CANONICAL)]
    if (len(widths) != len(_CANONICAL)
            or any(w not in _WIDTHS or w > dtype.itemsize
                   for w, dtype in zip(widths, _CANONICAL))
            or len(body) != len(widths) + n * sum(widths)):
        return None
    columns, offset = [], len(widths)
    for w, dtype in zip(widths, _CANONICAL):
        col = np.frombuffer(body, f"<{dtype.kind}{w}", count=n, offset=offset)
        if w < dtype.itemsize:
            col = col.astype(dtype)
            col.flags.writeable = False
        columns.append(col)
        offset += n * w
    trace = Trace(*columns)
    if trace_digest(trace).encode("ascii") != digest:
        return None
    return trace


def _npz_path(path: str | pathlib.Path) -> str:
    """*path* with ``.npz`` appended when missing (the historical suffix
    rule, kept so existing paths resolve the same file)."""
    path = str(path)
    return path if path.endswith(".npz") else path + ".npz"


def save_trace(trace: Trace, path: str | pathlib.Path) -> None:
    """Write *trace* to *path* atomically (``.npz`` is appended to a path
    without it, and :func:`load_trace` resolves the same way)."""
    atomic_write(_npz_path(path), encode_trace(trace))


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = _npz_path(path)
    buf = pathlib.Path(path).read_bytes()
    if buf[:2] == b"PK":
        raise ValueError(f"{path}: v1 npz trace files are no longer read; "
                         f"re-save the trace with save_trace")
    if len(buf) >= _HEADER.size and buf[:4] == _MAGIC:
        version = _HEADER.unpack_from(buf)[1]
        if version < TRACE_FORMAT_VERSION:
            raise ValueError(f"{path}: trace format v{version}; this build "
                             f"reads v{TRACE_FORMAT_VERSION}; re-save the "
                             f"trace with save_trace")
    trace = decode_trace(buf)
    if trace is None:
        raise ValueError(f"{path}: not a v{TRACE_FORMAT_VERSION} trace file "
                         f"(bad magic, version, width, length or digest)")
    return trace
