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
  ``<root>/store.stats.json``, updated in place — read, add, write back
  at offset 0 — under the store lock, so concurrent processes *add* to
  the totals instead of clobbering each other (no lost or double-counted
  hits) and an access costs no temp file, rename or directory update.
  Counters only grow, so a rewrite is never shorter than what it
  replaces: a writer killed at any point leaves a parseable file that
  lacks at most its own update.  Exported as a
  :class:`repro.telemetry.Snapshot` (``repro stats --store DIR``).
* **Safe concurrent access.**  The store lock is an ``fcntl.flock`` on
  the stats file itself where available (an ``O_EXCL`` lock-file spin on
  ``<root>/.store.spin`` elsewhere), taken on a descriptor opened for
  that one acquisition.  Entry reads/writes themselves stay lock-free
  (they were already atomic); stats updates, stats reads and eviction
  serialize.

The content-addressed key discipline is unchanged: same key means same
payload, so cross-run and cross-tenant sharing is automatic and safe.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Iterator

from ..telemetry import Snapshot
from .cache import ResultCache
from .job import Job

try:
    import fcntl
except ImportError:  # non-posix: degrade to a lock-file spin
    fcntl = None

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


_COUNTERS = tuple(f.name for f in dataclasses.fields(StoreStats))
#: one read covers any stats file this code wrote (~100 bytes)
_STATS_READ = 4096


@contextlib.contextmanager
def _spin_lock(path: pathlib.Path) -> Iterator[None]:
    """``O_EXCL`` lock file, for platforms without ``fcntl``."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR))
            break
        except FileExistsError:
            if time.monotonic() > deadline:  # stale lock: steal it
                try:
                    os.unlink(path)
                except OSError:
                    pass
            time.sleep(0.005)
    try:
        yield
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _parse_stats(raw: bytes) -> dict[str, int]:
    """Counters from the stats file's bytes; anything unreadable (empty,
    torn, foreign schema) counts from zero."""
    try:
        doc = json.loads(raw)
        if isinstance(doc, dict) and doc.get("schema") == STORE_SCHEMA:
            return {name: int(doc.get(name, 0)) for name in _COUNTERS}
    except (ValueError, TypeError):
        pass
    return dict.fromkeys(_COUNTERS, 0)


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
        #: this instance's share of the persisted counters
        self.local = StoreStats()

    # -- persisted stats -----------------------------------------------------

    @property
    def stats_path(self) -> pathlib.Path:
        return self.root / "store.stats.json"

    @contextlib.contextmanager
    def _locked(self, write: bool = True) -> Iterator[int]:
        """Hold the store lock; yields a descriptor on the stats file.

        The descriptor is opened here and closed on the way out (which
        is what drops the ``flock``): the lock belongs to the open file
        description, so one kept on the instance would be shared with a
        forked child and exclude neither side.  Only a writer creates
        the file (and, before that, the root) when it is not there yet.
        """
        path = self.stats_path
        try:
            fd = os.open(path, os.O_RDWR if write else os.O_RDONLY)
        except FileNotFoundError:
            if not write:
                raise
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield fd
            else:
                with _spin_lock(self.root / ".store.spin"):
                    yield fd
        finally:
            os.close(fd)

    def _add(self, fd: int, **deltas: int) -> None:
        """Add *deltas* to the persisted counters through the locked *fd*.

        Read-modify-write under the exclusive lock is what makes the
        counters additive across processes: two concurrent hits yield
        ``hits += 2``, never a lost update.  The one ``pwrite`` replaces
        the document in place; only a file that held something else
        (damage, a foreign schema) can be longer and is cut to fit.
        """
        raw = os.pread(fd, _STATS_READ, 0)
        stats = _parse_stats(raw)
        for name, delta in deltas.items():
            stats[name] += delta
            setattr(self.local, name, getattr(self.local, name) + delta)
        blob = json.dumps({"schema": STORE_SCHEMA, **stats},
                          sort_keys=True).encode("utf-8")
        os.pwrite(fd, blob, 0)
        if len(raw) > len(blob):
            os.ftruncate(fd, len(blob))

    def _bump(self, **deltas: int) -> None:
        with self._locked() as fd:
            self._add(fd, **deltas)

    def _load_stats(self) -> StoreStats:
        """The persisted counters, read under the lock: an in-place
        update is not atomic to a reader that does not take it."""
        try:
            with self._locked(write=False) as fd:
                raw = os.pread(fd, _STATS_READ, 0)
        except OSError:  # nothing counted yet (or unreadable): zeros
            return StoreStats()
        return StoreStats(**_parse_stats(raw))

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
        with self._locked() as fd:
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
                self._add(fd, evictions=evicted, evicted_bytes=evicted_bytes)
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
