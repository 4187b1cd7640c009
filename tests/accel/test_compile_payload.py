"""Store payloads of compiled traces: columns travel as base64 bytes,
and anything but an intact schema-2 payload falls back to a rebuild."""

from __future__ import annotations

import json

import pytest

from repro.accel import memo
from repro.accel.compile import (COMPILE_SCHEMA, shared_compiled,
                                 trace_from_payload, trace_payload)
from repro.accel.stats import global_stats, reset_global_stats
from repro.farm.store import SharedResultStore
from repro.workloads.microbench import get_kernel


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.clear_caches()
    reset_global_stats()
    yield
    memo.clear_caches()


def _trace():
    return get_kernel("CCh_st").build(scale=0.05, seed=3)


def test_payload_roundtrip_is_digest_equal_and_json_clean():
    t = _trace()
    payload = json.loads(json.dumps(trace_payload(t)))
    assert payload["schema"] == COMPILE_SCHEMA == 2
    assert all(isinstance(col["b64"], str) for col in payload["columns"].values())
    back = trace_from_payload(payload)
    assert len(back) == len(t) == payload["n"]
    assert memo.trace_digest(back) == memo.trace_digest(t)
    assert back.addr.dtype == t.addr.dtype and back.taken.dtype == t.taken.dtype


def test_flipped_byte_is_rejected():
    payload = trace_payload(_trace())
    b64 = payload["columns"]["addr"]["b64"]
    flipped = ("B" if b64[40] == "A" else "A")
    payload["columns"]["addr"]["b64"] = b64[:40] + flipped + b64[41:]
    assert trace_from_payload(payload) is None


@pytest.mark.parametrize("damage", [
    lambda p: p["columns"]["pc"].update(b64=p["columns"]["pc"]["b64"][:-4]),
    lambda p: p["columns"]["pc"].update(b64="not base64 !!"),
    lambda p: p["columns"]["op"].update(dtype="O"),
    lambda p: p["columns"].pop("size"),
    lambda p: p["columns"].update(dst=[1, 2, 3]),
])
def test_malformed_columns_are_rejected(damage):
    payload = trace_payload(_trace())
    damage(payload)
    assert trace_from_payload(payload) is None


def test_schema_1_payload_is_rejected():
    t = _trace()
    schema1 = {
        "schema": 1, "digest": memo.trace_digest(t), "n": len(t),
        "columns": {name: getattr(t, name).tolist()
                    for name in ("op", "dst", "src1", "src2", "addr", "size",
                                 "taken", "pc", "target")},
    }
    assert trace_from_payload(schema1) is None


def test_shared_compiled_store_hit_and_damaged_entry(tmp_path):
    store = SharedResultStore(tmp_path / "store")
    built = []

    def build():
        built.append(1)
        return _trace()

    first = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    memo.clear_caches()
    second = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    assert len(built) == 1 and second.digest == first.digest
    assert global_stats().compile_store_hits == 1

    # damage every stored entry: the next cold lookup rebuilds instead
    for path in store.root.glob("**/*.json"):
        if path.name != "store.stats.json":
            text = path.read_text()
            assert '"digest":"' in text
            path.write_text(text.replace('"digest":"', '"digest":"0'))
    memo.clear_caches()
    third = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    assert len(built) == 2 and third.digest == first.digest
