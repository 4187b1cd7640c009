"""Trace serialization: one binary codec for trace files and store payloads.

Traces are the interchange format between workload generation and timing
(like the instruction traces FireSim users capture with TracerV); saving
them makes runs reproducible and lets expensive generators (the MPI apps,
the interpreter) run once.

The encoded form is a fixed header — magic, :data:`TRACE_FORMAT_VERSION`,
row count, the 64-hex content digest — followed by ``zlib`` level 1 of the
nine little-endian columns concatenated in :attr:`Trace.COLUMNS` order.
Decoding trusts nothing in the header: the columns are re-hashed and a
digest mismatch rejects the buffer.
"""

from __future__ import annotations

import os
import pathlib
import struct
import tempfile
import zlib

import numpy as np

from .trace import _COLUMN_DTYPES, Trace, trace_digest

__all__ = ["save_trace", "load_trace", "encode_trace", "decode_trace",
           "TRACE_FORMAT_VERSION"]

TRACE_FORMAT_VERSION = 2

_MAGIC = b"RTRC"
#: magic, format version, row count, hex sha-256 of the columns
_HEADER = struct.Struct("<4sIQ64s")
_LE_DTYPES = [np.dtype(d).newbyteorder("<") for d in _COLUMN_DTYPES]
_ROW_BYTES = sum(d.itemsize for d in _LE_DTYPES)


def encode_trace(trace: Trace) -> bytes:
    """*trace* as header + compressed columns (see the module docstring)."""
    z = zlib.compressobj(1)
    body = [z.compress(memoryview(
                getattr(trace, name).astype(dtype, copy=False)).cast("B"))
            for name, dtype in zip(Trace.COLUMNS, _LE_DTYPES)]
    body.append(z.flush())
    header = _HEADER.pack(_MAGIC, TRACE_FORMAT_VERSION, len(trace),
                          trace_digest(trace).encode("ascii"))
    return header + b"".join(body)


def decode_trace(buf: bytes) -> Trace | None:
    """The trace *buf* encodes, or None when its magic, version, length
    or content digest is wrong.  Columns are read-only views over one
    decompressed buffer."""
    if len(buf) < _HEADER.size:
        return None
    magic, version, n, digest = _HEADER.unpack_from(buf)
    if magic != _MAGIC or version != TRACE_FORMAT_VERSION:
        return None
    try:
        body = zlib.decompress(memoryview(buf)[_HEADER.size:])
    except zlib.error:
        return None
    if len(body) != n * _ROW_BYTES:
        return None
    columns, offset = [], 0
    for dtype in _LE_DTYPES:
        columns.append(np.frombuffer(body, dtype, count=n, offset=offset))
        offset += n * dtype.itemsize
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
    path = _npz_path(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".trace-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(encode_trace(trace))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = _npz_path(path)
    buf = pathlib.Path(path).read_bytes()
    if buf[:2] == b"PK":
        raise ValueError(f"{path}: v1 npz trace files are no longer read; "
                         f"re-save the trace with save_trace")
    trace = decode_trace(buf)
    if trace is None:
        raise ValueError(f"{path}: not a v{TRACE_FORMAT_VERSION} trace file "
                         f"(bad magic, version, length or digest)")
    return trace
