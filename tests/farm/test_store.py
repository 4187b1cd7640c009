"""SharedResultStore: LRU budgets, durable stats, concurrent writers."""

import json
import multiprocessing
import os

from repro.farm import Job, cache_key
from repro.farm.store import SharedResultStore, StoreStats
from repro.soc import ROCKET1

_FORK = multiprocessing.get_context("fork")


def kernel_job(**kw):
    defaults = dict(name="EI", scale=0.05, seed=0)
    defaults.update(kw)
    return Job.kernel(ROCKET1, defaults.pop("name"), **defaults)


def fill(store, n, start=0):
    """Insert *n* distinct entries; returns their keys oldest-first."""
    keys = []
    for i in range(start, start + n):
        job = kernel_job(seed=i)
        key = cache_key(job)
        store.put(key, job, {"cycles": i})
        # deterministic LRU order regardless of filesystem mtime resolution
        os.utime(store.path(key), (i, i))
        keys.append(key)
    return keys


# ---------------------------------------------------------------- budgets

def test_entry_budget_evicts_oldest_first(tmp_path):
    store = SharedResultStore(tmp_path, max_entries=3)
    keys = fill(store, 5)
    assert len(store) == 3
    assert all(store.path(k).exists() for k in keys[2:])
    assert not any(store.path(k).exists() for k in keys[:2])
    assert store.local.evictions == 2


def test_byte_budget_evicts_until_it_fits(tmp_path):
    probe = SharedResultStore(tmp_path)
    (key,) = fill(probe, 1)
    entry_bytes = probe.path(key).stat().st_size
    probe.path(key).unlink()

    store = SharedResultStore(tmp_path, max_bytes=2 * entry_bytes)
    fill(store, 4)
    entries, nbytes = store.usage()
    assert nbytes <= 2 * entry_bytes
    assert entries <= 2


def test_hit_freshens_lru_position(tmp_path):
    store = SharedResultStore(tmp_path, max_entries=2)
    keys = fill(store, 2)
    assert store.get(keys[0]) is not None  # freshen the older entry
    fill(store, 1, start=10)               # force one eviction
    assert store.path(keys[0]).exists()
    assert not store.path(keys[1]).exists()


def test_fresh_insert_is_protected_from_eviction(tmp_path):
    store = SharedResultStore(tmp_path, max_entries=1)
    keys = fill(store, 3)
    assert [k for k in keys if store.path(k).exists()] == [keys[-1]]


def test_unbounded_store_never_evicts(tmp_path):
    store = SharedResultStore(tmp_path)
    fill(store, 4)
    assert len(store) == 4
    assert store.evict() == 0


# ------------------------------------------------------------------ stats

def test_stats_persist_across_instances(tmp_path):
    a = SharedResultStore(tmp_path)
    (key,) = fill(a, 1)
    a.get(key)
    a.get("f" * 64)
    b = SharedResultStore(tmp_path)
    snap = b.stats_snapshot().data["store"]
    assert snap["inserts"] == 1 and snap["hits"] == 1 and snap["misses"] == 1
    assert snap["hit_rate"] == 0.5
    assert snap["entries"] == 1
    # local counters are per-instance, persisted ones are shared
    assert b.local == StoreStats()


def test_stats_file_bytes_are_the_streaming_encoders(tmp_path):
    import io
    from repro.farm import STORE_SCHEMA
    store = SharedResultStore(tmp_path)
    (key,) = fill(store, 1)
    store.get(key)
    want = io.StringIO()
    json.dump({"schema": STORE_SCHEMA, "hits": 1, "misses": 0, "inserts": 1,
               "evictions": 0, "evicted_bytes": 0}, want, sort_keys=True)
    assert store.stats_path.read_text(encoding="utf-8") == want.getvalue()


def test_corrupt_stats_file_reads_as_zero(tmp_path):
    store = SharedResultStore(tmp_path)
    fill(store, 1)
    store.stats_path.write_text("{ torn")
    snap = store.stats_snapshot().data["store"]
    assert snap["inserts"] == 0
    store.get("f" * 64)  # still able to bump from the zero baseline
    assert store.stats_snapshot().data["store"]["misses"] == 1


# ----------------------------------------------------- concurrent writers

def _disjoint_worker(root, proc, n):
    store = SharedResultStore(root)
    for i in range(n):
        job = kernel_job(seed=1000 * proc + i)
        key = cache_key(job)
        assert store.get(key) is None
        store.put(key, job, {"cycles": 1000 * proc + i})
        assert store.get(key) == {"cycles": 1000 * proc + i}


def _run_all(procs):
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0


def test_concurrent_writers_no_lost_or_double_counted_stats(tmp_path):
    """Two processes hammer one store; every counter is exactly additive."""
    nproc, per = 2, 6
    _run_all([_FORK.Process(target=_disjoint_worker,
                            args=(tmp_path, p, per))
              for p in range(nproc)])
    store = SharedResultStore(tmp_path)
    snap = store.stats_snapshot().data["store"]
    assert snap["misses"] == nproc * per
    assert snap["inserts"] == nproc * per
    assert snap["hits"] == nproc * per
    assert snap["entries"] == nproc * per
    assert snap["evictions"] == 0


def _same_key_worker(root, rounds):
    store = SharedResultStore(root)
    job = kernel_job(seed=7)
    key = cache_key(job)
    for _ in range(rounds):
        store.put(key, job, {"cycles": 7})
        got = store.get(key)
        assert got == {"cycles": 7}, got


def test_concurrent_same_key_writers_never_corrupt(tmp_path):
    """Racing writers of one key: the entry stays valid, reads never see
    a torn file, and nothing lands in quarantine."""
    rounds = 10
    _run_all([_FORK.Process(target=_same_key_worker, args=(tmp_path, rounds))
              for _ in range(2)])
    store = SharedResultStore(tmp_path)
    key = cache_key(kernel_job(seed=7))
    doc = json.loads(store.path(key).read_text(encoding="utf-8"))
    assert doc["payload"] == {"cycles": 7}
    assert not store.quarantine_dir.exists()
    snap = store.stats_snapshot().data["store"]
    assert snap["inserts"] == 2 * rounds
    assert snap["hits"] == 2 * rounds


def _evicting_worker(root, proc, n, budget):
    store = SharedResultStore(root, max_entries=budget)
    for i in range(n):
        job = kernel_job(seed=1000 * proc + i)
        store.put(cache_key(job), job, {"cycles": i})


def test_concurrent_eviction_accounts_every_entry_once(tmp_path):
    """Two evicting writers never double-delete: on-disk entries plus
    counted evictions equal counted inserts exactly."""
    nproc, per, budget = 2, 8, 4
    _run_all([_FORK.Process(target=_evicting_worker,
                            args=(tmp_path, p, per, budget))
              for p in range(nproc)])
    store = SharedResultStore(tmp_path, max_entries=budget)
    snap = store.stats_snapshot().data["store"]
    assert snap["entries"] <= budget
    assert snap["inserts"] == nproc * per
    assert snap["evictions"] + snap["entries"] == snap["inserts"]


# ------------------------------------------- bookkeeping off the result path

def _count_file_creation(monkeypatch):
    """Count temp files made, renames, and ``os.open`` calls that may
    create a file, from here on."""
    import tempfile
    calls = {"mkstemp": 0, "replace": 0, "creat": 0}
    real_mkstemp, real_replace, real_open = (tempfile.mkstemp, os.replace,
                                             os.open)

    def mkstemp(*args, **kw):
        calls["mkstemp"] += 1
        return real_mkstemp(*args, **kw)

    def replace(*args, **kw):
        calls["replace"] += 1
        return real_replace(*args, **kw)

    def open_(path, flags, *args, **kw):
        if flags & os.O_CREAT:
            calls["creat"] += 1
        return real_open(path, flags, *args, **kw)

    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "open", open_)
    return calls


def test_get_creates_nothing_and_put_one_entry_file(tmp_path, monkeypatch):
    store = SharedResultStore(tmp_path)
    (key,) = fill(store, 1)
    before = sorted(p.name for p in tmp_path.iterdir())
    calls = _count_file_creation(monkeypatch)
    assert store.get(key) is not None
    assert store.get("f" * 64) is None
    assert calls == {"mkstemp": 0, "replace": 0, "creat": 0}
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    job = kernel_job(seed=1)
    store.put(cache_key(job), job, {"cycles": 1})
    assert calls == {"mkstemp": 1, "replace": 1, "creat": 1}  # mkstemp's own
    snap = store.stats_snapshot().data["store"]
    assert (snap["hits"], snap["misses"], snap["inserts"]) == (1, 1, 2)


def test_corrupt_stats_longer_than_the_rewrite_ends_valid(tmp_path):
    from repro.farm import STORE_SCHEMA
    store = SharedResultStore(tmp_path)
    fill(store, 1)
    store.stats_path.write_text("{ torn" + "x" * 9000)
    store.get("f" * 64)
    doc = json.loads(store.stats_path.read_text(encoding="utf-8"))
    assert doc == {"schema": STORE_SCHEMA, "hits": 0, "misses": 1,
                   "inserts": 0, "evictions": 0, "evicted_bytes": 0}


def test_snapshot_of_a_store_never_written_creates_nothing(tmp_path):
    store = SharedResultStore(tmp_path / "absent")
    assert store.stats_snapshot().data["store"]["hits"] == 0
    assert not (tmp_path / "absent").exists()


def _mixed_worker(root, proc, n, budget):
    store = SharedResultStore(root, max_entries=budget)
    for i in range(n):
        job = kernel_job(seed=1000 * proc + i)
        key = cache_key(job)
        store.get(key)                      # a miss: nobody wrote it yet
        store.put(key, job, {"cycles": i})
        store.get(key)                      # hit, or miss if evicted since


def test_mixed_traffic_with_two_evictors_stays_exactly_additive(tmp_path):
    """Four processes get and put while two of them also evict: counter
    updates and eviction share one lock and one write path, so nothing
    is lost between them."""
    per, budget = 10, 6
    _run_all([_FORK.Process(target=_mixed_worker,
                            args=(tmp_path, p, per,
                                  budget if p < 2 else None))
              for p in range(4)])
    snap = SharedResultStore(tmp_path).stats_snapshot().data["store"]
    assert snap["inserts"] == 4 * per
    assert snap["hits"] + snap["misses"] == 2 * 4 * per
    assert snap["misses"] >= 4 * per
    assert snap["evictions"] + snap["entries"] == snap["inserts"]
    assert snap["evictions"] > 0


def _bumping_worker(root, n):
    store = SharedResultStore(root)
    for _ in range(n):
        store.get("f" * 64)


def test_snapshot_racing_a_writer_never_reads_zeros_or_torn_json(tmp_path):
    store = SharedResultStore(tmp_path)
    store.get("f" * 64)                     # misses == 1 from here on
    n = 1500
    writer = _FORK.Process(target=_bumping_worker, args=(tmp_path, n))
    writer.start()
    seen = []
    while writer.is_alive():
        seen.append(store.stats_snapshot().data["store"]["misses"])
    writer.join(timeout=60)
    assert writer.exitcode == 0
    seen.append(store.stats_snapshot().data["store"]["misses"])
    assert seen == sorted(seen) and seen[0] >= 1 and seen[-1] == n + 1


def test_store_used_on_both_sides_of_a_fork_still_excludes(tmp_path):
    """The lock is taken on a descriptor opened per acquisition; one
    inherited across ``fork()`` would share its open file description —
    and so its ``flock`` — between parent and child."""
    store = SharedResultStore(tmp_path)
    store.get("f" * 64)                     # the store is in use pre-fork
    n = 200

    def bump():
        for _ in range(n):
            store.get("f" * 64)

    child = _FORK.Process(target=bump)
    child.start()
    bump()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert store.stats_snapshot().data["store"]["misses"] == 2 * n + 1
    assert store.local.misses == n + 1


def test_spin_lock_fallback_guards_the_same_in_place_update(tmp_path,
                                                            monkeypatch):
    """Without ``fcntl`` the O_EXCL lock file stands in for ``flock``;
    the counters stay additive and the lock file is gone afterwards."""
    from repro.farm import store as store_mod
    monkeypatch.setattr(store_mod, "fcntl", None)   # forked workers inherit
    nproc, per = 2, 6
    _run_all([_FORK.Process(target=_disjoint_worker,
                            args=(tmp_path, p, per))
              for p in range(nproc)])
    snap = SharedResultStore(tmp_path).stats_snapshot().data["store"]
    assert (snap["misses"], snap["inserts"], snap["hits"]) == (
        nproc * per, nproc * per, nproc * per)
    assert not (tmp_path / ".store.spin").exists()
    assert not (tmp_path / ".store.lock").exists()
