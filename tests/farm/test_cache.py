"""Result-cache tests: content addressing, round-trips, invalidation."""

import json

import pytest

from repro.farm import Job, ResultCache, cache_key, execute_job
from repro.soc import ROCKET1, ROCKET2, compose
from repro.soc.fragments import WithL2Banks


def kernel_job(**kw):
    defaults = dict(config=ROCKET1, name="EI", scale=0.05, seed=0)
    defaults.update(kw)
    return Job.kernel(defaults.pop("config"), defaults.pop("name"), **defaults)


def test_key_is_deterministic_and_hex():
    a, b = cache_key(kernel_job()), cache_key(kernel_job())
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0


@pytest.mark.parametrize("other", [
    kernel_job(config=ROCKET2),
    kernel_job(name="MM"),
    kernel_job(seed=1),
    kernel_job(scale=0.1),
    kernel_job(warmup=False),
])
def test_key_changes_with_any_identity_field(other):
    assert cache_key(kernel_job()) != cache_key(other)


def test_key_sees_through_config_name_collisions():
    """Composed variants hash the full config tree, not just the name."""
    banked = compose(ROCKET1, WithL2Banks(8), name=ROCKET1.name)
    assert banked.name == ROCKET1.name
    assert cache_key(Job.kernel(banked, "EI", scale=0.05)) != \
        cache_key(kernel_job())


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    job = kernel_job()
    key = cache_key(job)
    assert cache.get(key) is None and key not in cache
    payload = execute_job(job)
    cache.put(key, job, payload)
    assert cache.get(key) == payload
    assert key in cache and len(cache) == 1


def test_memo_hit_keeps_job_identity_metadata():
    """The in-process payload memo is content-addressed on the built
    trace; a seed-invariant kernel (EI's trace ignores the seed) must
    still report each job's own seed, not the first caller's."""
    payloads = [execute_job(kernel_job(seed=s)) for s in (30, 31, 32)]
    assert [p["seed"] for p in payloads] == [30, 31, 32]
    # simulation outputs are genuinely shared across the collision
    assert len({p["cycles"] for p in payloads}) == 1


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    job = kernel_job()
    key = cache_key(job)
    cache.put(key, job, {"cycles": 1})
    path = cache.path(key)
    path.write_text("{ truncated")
    assert cache.get(key) is None
    # wrong-key entry (e.g. renamed file) is also a miss
    path.write_text(json.dumps({"key": "0" * 64, "payload": {"cycles": 1}}))
    assert cache.get(key) is None


def test_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    for seed in range(3):
        job = kernel_job(seed=seed)
        cache.put(cache_key(job), job, {"cycles": seed})
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_selftest_jobs_are_not_cacheable():
    assert Job.selftest("ok").cacheable is False
    assert kernel_job().cacheable is True


def test_quantum_is_part_of_job_identity():
    """Lockstep timing differs from the monolithic path, so a quantum'd
    job must never collide with a plain one (or a different quantum)."""
    plain = kernel_job()
    assert "quantum" not in dict(plain.params)  # legacy keys unchanged
    q512 = kernel_job(quantum=512)
    q1024 = kernel_job(quantum=1024)
    keys = {cache_key(plain), cache_key(q512), cache_key(q1024),
            cache_key(kernel_job(quantum=512, chunk=64))}
    assert len(keys) == 4
    assert cache_key(q512) == cache_key(kernel_job(quantum=512))


def test_quarantine_counts_and_preserves_evidence(tmp_path):
    cache = ResultCache(tmp_path)
    job = kernel_job()
    key = cache_key(job)
    cache.put(key, job, {"cycles": 1})
    cache.path(key).write_text("{ truncated")
    assert cache.get(key) is None
    assert cache.corrupt_quarantined == 1
    moved = list(cache.quarantine_dir.glob("*.json"))
    assert len(moved) == 1 and moved[0].read_text() == "{ truncated"
    # schema-mismatch entries (version skew) are quarantined too
    cache.put(key, job, {"cycles": 1})
    entry = json.loads(cache.path(key).read_text())
    entry["schema"] = -1
    cache.path(key).write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.corrupt_quarantined == 2


def test_entry_bytes_are_the_streaming_encoders(tmp_path):
    """``put`` builds the entry text with ``json.dumps`` (the C encoder);
    the file must still be byte for byte what ``json.dump`` streamed."""
    import io

    import repro
    from repro.farm import CACHE_SCHEMA
    job = kernel_job()
    payload = execute_job(job)
    cache = ResultCache(tmp_path)
    key = cache_key(job)
    cache.put(key, job, payload)
    want = io.StringIO()
    json.dump({"key": key, "schema": CACHE_SCHEMA,
               "repro_version": repro.__version__, "label": job.label,
               "job": job.describe(), "payload": payload},
              want, sort_keys=True, separators=(",", ":"))
    assert cache.path(key).read_text(encoding="utf-8") == want.getvalue()
