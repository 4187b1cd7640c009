"""Trace serialization: save/load micro-op traces as ``.npz`` archives.

Traces are the interchange format between workload generation and timing
(like the instruction traces FireSim users capture with TracerV); saving
them makes runs reproducible and lets expensive generators (the MPI apps,
the interpreter) run once.
"""

from __future__ import annotations

import pathlib

import numpy as np

from .trace import Trace

__all__ = ["save_trace", "load_trace", "TRACE_FORMAT_VERSION"]

TRACE_FORMAT_VERSION = 1

_FIELDS = ("op", "dst", "src1", "src2", "addr", "size", "taken", "pc", "target")


def _npz_path(path: str | pathlib.Path) -> str:
    """*path* as numpy writes it: ``.npz`` is appended when missing."""
    path = str(path)
    return path if path.endswith(".npz") else path + ".npz"


def save_trace(trace: Trace, path: str | pathlib.Path) -> None:
    """Write *trace* to *path* (compressed npz; ``.npz`` is appended to a
    path without it, and :func:`load_trace` resolves the same way)."""
    arrays = {name: getattr(trace, name) for name in _FIELDS}
    np.savez_compressed(
        _npz_path(path),
        __version__=np.int64(TRACE_FORMAT_VERSION),
        **arrays,
    )


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(_npz_path(path)) as data:
        version = int(data["__version__"])
        if version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"trace format v{version} unsupported "
                f"(expected v{TRACE_FORMAT_VERSION})"
            )
        missing = [f for f in _FIELDS if f not in data]
        if missing:
            raise ValueError(f"trace file missing fields: {missing}")
        return Trace(*(data[name] for name in _FIELDS))
