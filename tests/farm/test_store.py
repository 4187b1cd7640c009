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
