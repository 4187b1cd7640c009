"""Trace and result memoization: identity, bounds, isolation, kill-switch."""

from __future__ import annotations

import pytest

from repro.accel import memo
from repro.accel.stats import global_stats, reset_global_stats
from repro.soc.presets import ROCKET1
from repro.workloads.microbench import get_kernel, run_kernel


@pytest.fixture(autouse=True)
def _cold():
    memo.clear_caches()
    reset_global_stats()
    yield
    memo.clear_caches()


# ------------------------------------------------------------ digests

def test_trace_digest_is_content_identity():
    k = get_kernel("EI")
    a = k.build(scale=0.05, seed=0)
    b = k.build(scale=0.05, seed=0)   # distinct object, same content
    c = k.build(scale=0.1, seed=0)    # different content
    assert a is not b
    assert memo.trace_digest(a) == memo.trace_digest(b)
    assert memo.trace_digest(a) != memo.trace_digest(c)


# ------------------------------------------------------------ shared traces

def test_shared_trace_builds_once():
    built = []

    def build():
        built.append(1)
        return get_kernel("EI").build(scale=0.05)

    a = memo.shared_trace("EI", 0.05, 0, build)
    b = memo.shared_trace("EI", 0.05, 0, build)
    assert a is b and len(built) == 1
    g = global_stats()
    assert g.trace_cache_hits == 1 and g.trace_cache_misses == 1
    memo.shared_trace("EI", 0.05, 1, build)  # different seed: new build
    assert len(built) == 2


# ------------------------------------------------------------ result memo

def test_memo_round_trip_and_deep_copy_isolation():
    key = ("k", "c", "Uncore", ())
    memo.memo_put(key, {"cycles": 10, "stalls": {"dep": 3}})
    out = memo.memo_get(key)
    out["stalls"]["dep"] = 999   # a hit must never alias the stored payload
    again = memo.memo_get(key)
    assert again == {"cycles": 10, "stalls": {"dep": 3}}
    g = global_stats()
    assert g.memo_hits == 2


def test_memo_lru_is_bounded():
    for i in range(memo._MEMO_MAX + 16):
        memo.memo_put(("key", i), i)
    assert len(memo._memo) <= memo._MEMO_MAX
    assert memo.memo_get(("key", 0)) is None          # oldest evicted
    assert memo.memo_get(("key", memo._MEMO_MAX + 15)) is not None


def test_env_kill_switch_disables_memo(monkeypatch):
    monkeypatch.setenv("REPRO_ACCEL_MEMO", "0")
    assert not memo.memo_enabled()
    memo.memo_put(("k",), 1)
    assert memo.memo_get(("k",)) is None
    assert len(memo._memo) == 0


# ------------------------------------------------------------ end to end

def test_repeat_runs_hit_the_memo_and_stay_identical():
    import dataclasses

    a = run_kernel(ROCKET1, "EI", scale=0.05)
    hits_before = global_stats().memo_hits
    b = run_kernel(ROCKET1, "EI", scale=0.05)
    assert global_stats().memo_hits == hits_before + 1
    assert dataclasses.asdict(a.result) == dataclasses.asdict(b.result)
