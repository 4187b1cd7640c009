"""Whole-file writes that a crash or a concurrent writer cannot tear."""

from __future__ import annotations

import os
import tempfile

__all__ = ["atomic_write"]


def atomic_write(path: str | os.PathLike, data: bytes | str) -> None:
    """Replace *path* with *data* (a str is written as UTF-8) through a
    unique ``*.tmp`` file in its directory, removed if anything fails:
    readers see the old file or the new one, and concurrent writers each
    rename their own.  No fsync: no torn files, but no power-loss safety.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.fspath(path)) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
