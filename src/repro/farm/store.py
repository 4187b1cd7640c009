"""Shared cross-run result store: the ResultCache promoted to a service.

A plain :class:`~repro.farm.cache.ResultCache` is already safe for
concurrent writers (atomic rename, quarantine-on-read), but it grows
without bound and keeps no usage statistics — fine for one sweep, wrong
for a long-lived ``repro serve`` instance feeding many tenants.  The
:class:`SharedResultStore` adds exactly the service-layer concerns:

* **Bounded size with LRU eviction.**  ``max_entries`` / ``max_bytes``
  budgets; every hit freshens the entry's mtime, and inserts evict the
  least-recently-used entries until the store fits.  Eviction runs under
  the store lock so two server workers never double-delete.
* **Durable hit/miss/eviction statistics.**  Counters persist in
  ``<root>/store.stats.json``, updated read-modify-write under the store
  lock, so concurrent processes *add* to the totals instead of clobbering
  each other (no lost or double-counted hits).  Exported as a
  :class:`repro.telemetry.Snapshot` (``repro stats --store DIR``).
* **Safe concurrent access.**  The lock is an ``fcntl.flock`` on
  ``<root>/.store.lock`` where available, with an ``O_EXCL`` lock-file
  spin fallback; entry reads/writes themselves stay lock-free (they were
  already atomic), only stats and eviction serialize.

The content-addressed key discipline is unchanged: same key means same
payload, so cross-run and cross-tenant sharing is automatic and safe.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass
from typing import Any

from ..telemetry import Snapshot
from .cache import ResultCache
from .job import Job

__all__ = ["STORE_SCHEMA", "SharedResultStore", "StoreStats"]

#: bump when the persisted stats layout changes incompatibly
STORE_SCHEMA = 1


@dataclass
class StoreStats:
    """Cross-process usage counters (persisted under the store lock)."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _StoreLock:
    """``flock`` on ``<root>/.store.lock``; O_EXCL-spin where absent."""

    def __init__(self, root: pathlib.Path) -> None:
        self.path = root / ".store.lock"
        try:
            import fcntl
            self._fcntl = fcntl
        except ImportError:  # non-posix: degrade to a lock-file spin
            self._fcntl = None
        self._fd: int | None = None

    def __enter__(self) -> "_StoreLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            self._fcntl.flock(self._fd, self._fcntl.LOCK_EX)
        else:
            spin = self.path.with_suffix(".spin")
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    self._fd = os.open(spin, os.O_CREAT | os.O_EXCL
                                       | os.O_RDWR)
                    break
                except FileExistsError:
                    if time.monotonic() > deadline:  # stale lock: steal it
                        try:
                            os.unlink(spin)
                        except OSError:
                            pass
                    time.sleep(0.005)
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            if self._fcntl is not None:
                self._fcntl.flock(self._fd, self._fcntl.LOCK_UN)
                os.close(self._fd)
            else:
                os.close(self._fd)
                try:
                    os.unlink(self.path.with_suffix(".spin"))
                except OSError:
                    pass
            self._fd = None


class SharedResultStore(ResultCache):
    """A :class:`ResultCache` with LRU budgets and durable shared stats.

    Parameters
    ----------
    root:
        Store directory (shared across runs, servers, and tenants).
    max_entries:
        Entry-count budget; ``None`` leaves the count unbounded.
    max_bytes:
        Payload-bytes budget (sum of entry file sizes); ``None``
        unbounded.  Both budgets may be active at once; eviction runs
        until the store satisfies every configured budget.
    """

    def __init__(self, root: str | os.PathLike,
                 max_entries: int | None = None,
                 max_bytes: int | None = None) -> None:
        super().__init__(root)
        self.max_entries = (None if max_entries is None
                            else max(1, int(max_entries)))
        self.max_bytes = None if max_bytes is None else max(1, int(max_bytes))
        self._lock = _StoreLock(self.root)
        #: this instance's share of the persisted counters
        self.local = StoreStats()

    # -- persisted stats -----------------------------------------------------

    @property
    def stats_path(self) -> pathlib.Path:
        return self.root / "store.stats.json"

    def _load_stats(self) -> StoreStats:
        try:
            doc = json.loads(self.stats_path.read_text(encoding="utf-8"))
            if doc.get("schema") != STORE_SCHEMA:
                return StoreStats()
            return StoreStats(**{f.name: int(doc.get(f.name, 0))
                                 for f in dataclasses.fields(StoreStats)})
        except (OSError, ValueError, TypeError):
            return StoreStats()

    def _save_stats(self, stats: StoreStats) -> None:
        doc = {"schema": STORE_SCHEMA, **dataclasses.asdict(stats)}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(json.dumps(doc, sort_keys=True))
            os.replace(tmp, self.stats_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _bump(self, **deltas: int) -> None:
        """Add *deltas* to the persisted counters under the store lock.

        Read-modify-write under an exclusive lock is what makes the
        counters additive across processes: two concurrent hits yield
        ``hits += 2``, never a lost update.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with self._lock:
            stats = self._load_stats()
            for name, delta in deltas.items():
                setattr(stats, name, getattr(stats, name) + delta)
            self._save_stats(stats)
        for name, delta in deltas.items():
            setattr(self.local, name, getattr(self.local, name) + delta)

    # -- cache interface -----------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        payload = super().get(key)
        if payload is None:
            self._bump(misses=1)
            return None
        try:
            os.utime(self.path(key))  # freshen for LRU ordering
        except OSError:
            pass
        self._bump(hits=1)
        return payload

    def put(self, key: str, job: Job, payload: dict[str, Any]) -> None:
        super().put(key, job, payload)
        self._bump(inserts=1)
        if self.max_entries is not None or self.max_bytes is not None:
            self.evict(protect=key)

    # -- eviction ------------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, pathlib.Path]]:
        """``(mtime, size, path)`` for every entry, oldest first."""
        out = []
        for p in self.root.glob("??/*.json"):
            try:
                st = p.stat()
            except OSError:
                continue  # concurrently evicted
            out.append((st.st_mtime, st.st_size, p))
        out.sort(key=lambda t: (t[0], str(t[2])))
        return out

    def evict(self, protect: str | None = None) -> int:
        """Remove least-recently-used entries until the budgets hold.

        *protect* shields one key (typically the entry just written)
        from clock-skew accidents.  Returns how many entries were
        evicted by this call.
        """
        if self.max_entries is None and self.max_bytes is None:
            return 0
        protected = self.path(protect) if protect is not None else None
        evicted = 0
        evicted_bytes = 0
        with self._lock:
            entries = self._entries()
            total = len(entries)
            total_bytes = sum(size for _, size, _ in entries)
            for mtime, size, path in entries:
                over = ((self.max_entries is not None
                         and total > self.max_entries)
                        or (self.max_bytes is not None
                            and total_bytes > self.max_bytes))
                if not over:
                    break
                if protected is not None and path == protected:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue  # lost a race with another evictor
                total -= 1
                total_bytes -= size
                evicted += 1
                evicted_bytes += size
            if evicted:
                stats = self._load_stats()
                stats.evictions += evicted
                stats.evicted_bytes += evicted_bytes
                self._save_stats(stats)
        if evicted:
            self.local.evictions += evicted
            self.local.evicted_bytes += evicted_bytes
        return evicted

    # -- reporting -----------------------------------------------------------

    def usage(self) -> tuple[int, int]:
        """Current ``(entries, bytes)`` on disk."""
        entries = self._entries()
        return len(entries), sum(size for _, size, _ in entries)

    def stats_snapshot(self) -> Snapshot:
        """Durable counters + live usage as a telemetry snapshot."""
        stats = self._load_stats()
        entries, nbytes = self.usage()
        return Snapshot({
            "schema": STORE_SCHEMA,
            "store": {
                **dataclasses.asdict(stats),
                "hit_rate": round(stats.hit_rate, 6),
                "entries": entries,
                "bytes": nbytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            },
        })

    def __repr__(self) -> str:
        budget = []
        if self.max_entries is not None:
            budget.append(f"max_entries={self.max_entries}")
        if self.max_bytes is not None:
            budget.append(f"max_bytes={self.max_bytes}")
        extra = (", " + ", ".join(budget)) if budget else ""
        return f"SharedResultStore({str(self.root)!r}, {len(self)} entries{extra})"
