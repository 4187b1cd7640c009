"""Content-addressed on-disk result cache for farmed simulations.

The key is a SHA-256 over the canonical JSON of everything a payload
depends on: the full ``SoCConfig`` tree (not just its name), the
workload identity and parameters, the seed/ranks, the cache schema
version, and the repro package version.  Any change to any of those —
an ablated L2 bank count, a bumped simulator version — yields a new key,
so stale entries are never *invalidated*, they are simply never hit
again.  Re-running a sweep therefore only simulates cache misses.

Entries are one JSON file each, fanned out over 256 two-hex-digit
subdirectories (git-object style) and written atomically
(tempfile + ``os.replace``) so a crashed or concurrent writer can never
leave a truncated entry behind.  A truncated, corrupt, or
schema-mismatched entry found on *read* (disk damage, foreign writers,
version skew) is moved to ``<cache>/corrupt/`` for post-mortem, counted
in ``corrupt_quarantined``, and reported as a miss so the farm simply
re-runs the job instead of crashing or serving garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any

from .. import __version__
from .._atomic import atomic_write
from .job import Job

__all__ = ["CACHE_SCHEMA", "ResultCache", "cache_key"]

#: bump when the payload layout changes shape (invalidates every entry)
CACHE_SCHEMA = 1


def cache_key(job: Job) -> str:
    """Deterministic content hash of one job's full identity."""
    ident = {
        "cache_schema": CACHE_SCHEMA,
        "repro_version": __version__,
        "job": job.describe(),
    }
    blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of ``<key[:2]>/<key>.json`` payload files."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        #: corrupt entries quarantined by this instance (farm telemetry)
        self.corrupt_quarantined = 0

    def path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / "corrupt"

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a damaged entry aside (never deletes evidence)."""
        self.corrupt_quarantined += 1
        dest = self.quarantine_dir / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            dest.with_suffix(".reason").write_text(reason + "\n")
        except OSError:
            pass  # quarantine is best-effort; the miss already protects us

    def get(self, key: str) -> dict[str, Any] | None:
        """Payload for *key*, or None on miss (never raises).

        A present-but-invalid entry — unparsable JSON, wrong key, wrong
        schema, malformed payload — is quarantined and reads as a miss.
        """
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None  # genuinely absent (or unreadable): a plain miss
        reason = None
        payload: dict[str, Any] | None = None
        try:
            entry = json.loads(blob.decode("utf-8"))
        except UnicodeDecodeError as exc:
            reason = f"not UTF-8 (binary damage?): {exc}"
            entry = None
        except ValueError as exc:
            reason = f"unparsable JSON (truncated?): {exc}"
            entry = None
        else:
            if not isinstance(entry, dict):
                reason = f"entry is {type(entry).__name__}, not an object"
            elif entry.get("key") != key:
                reason = f"key mismatch: entry claims {entry.get('key')!r}"
            elif entry.get("schema") != CACHE_SCHEMA:
                reason = (f"schema {entry.get('schema')!r} != "
                          f"{CACHE_SCHEMA}")
            elif not isinstance(entry.get("payload"), dict):
                reason = "payload missing or not an object"
            else:
                payload = entry["payload"]
        if reason is not None:
            self._quarantine(path, reason)
            return None
        return payload

    def put(self, key: str, job: Job, payload: dict[str, Any]) -> None:
        """Store *payload* atomically; concurrent writers race benignly
        (same key means same content, so last-rename-wins is harmless)."""
        entry = {
            "key": key,
            "schema": CACHE_SCHEMA,
            "repro_version": __version__,
            "label": job.label,
            "job": job.describe(),
            "payload": payload,
        }
        target = self.path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(target, json.dumps(entry, sort_keys=True,
                                        separators=(",", ":")))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for p in self.root.glob("??/*.json"):
            try:
                p.unlink()
                n += 1
            except OSError:
                pass
        return n

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, {len(self)} entries)"
