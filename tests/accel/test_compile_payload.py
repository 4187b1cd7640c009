"""Store payloads of compiled traces: one base64 string of the trace
codec's bytes, and anything but an intact schema-3 payload falls back to
a rebuild."""

from __future__ import annotations

import base64
import json
import struct
import types
import zlib

import pytest

from repro.accel import memo
from repro.accel.compile import (COMPILE_SCHEMA, compiled_store_key,
                                 shared_compiled, trace_from_payload,
                                 trace_payload)
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
    assert payload["schema"] == COMPILE_SCHEMA == 3
    assert sorted(payload) == ["b64", "schema"]
    assert isinstance(payload["b64"], str)
    back = trace_from_payload(payload)
    assert len(back) == len(t)
    assert memo.trace_digest(back) == memo.trace_digest(t)
    assert back.addr.dtype == t.addr.dtype and back.taken.dtype == t.taken.dtype


def test_flipped_byte_is_rejected():
    payload = trace_payload(_trace())
    raw = bytearray(base64.b64decode(payload["b64"]))
    raw[len(raw) // 2] ^= 0x01
    payload["b64"] = base64.b64encode(bytes(raw)).decode("ascii")
    assert trace_from_payload(payload) is None


@pytest.mark.parametrize("damage", [
    lambda p: p.update(b64=p["b64"][:len(p["b64"]) // 2]),   # truncated
    lambda p: p.update(b64="not base64 !!"),
    lambda p: p.update(b64=[1, 2, 3]),
    lambda p: p.pop("b64"),
    lambda p: p.update(b64=base64.b64encode(b"PK\x03\x04").decode()),
])
def test_malformed_columns_are_rejected(damage):
    payload = trace_payload(_trace())
    damage(payload)
    assert trace_from_payload(payload) is None


def test_schema_1_payload_is_rejected():
    t = _trace()
    schema1 = {
        "schema": 1, "digest": memo.trace_digest(t), "n": len(t),
        "columns": {name: getattr(t, name).tolist() for name in t.COLUMNS},
    }
    assert trace_from_payload(schema1) is None


def test_schema_2_payload_is_rejected():
    t = _trace()
    columns = {}
    for name in t.COLUMNS:
        arr = getattr(t, name)
        columns[name] = {"dtype": arr.dtype.str,
                         "b64": base64.b64encode(arr.tobytes()).decode()}
    schema2 = {"schema": 2, "digest": memo.trace_digest(t), "n": len(t),
               "columns": columns}
    assert trace_from_payload(schema2) is None
    # a schema-3 body under the old schema number is refused too
    assert trace_from_payload({**trace_payload(t), "schema": 2}) is None


def test_shared_compiled_store_hit_and_damaged_entry(tmp_path):
    store = SharedResultStore(tmp_path / "store")
    built = []

    def build():
        built.append(1)
        return _trace()

    first = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    assert first._compiled is not None  # returned already compiled
    memo.clear_caches()
    second = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    assert len(built) == 1
    assert memo.trace_digest(second) == memo.trace_digest(first)
    assert global_stats().compile_store_hits == 1

    # damage every stored entry: the next cold lookup rebuilds instead
    for path in store.root.glob("**/*.json"):
        if path.name != "store.stats.json":
            entry = json.loads(path.read_text())
            raw = bytearray(base64.b64decode(entry["payload"]["b64"]))
            raw[-1] ^= 0x01
            entry["payload"]["b64"] = base64.b64encode(bytes(raw)).decode()
            path.write_text(json.dumps(entry))
    memo.clear_caches()
    third = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    assert len(built) == 2
    assert memo.trace_digest(third) == memo.trace_digest(first)


def _v2_bytes(t):
    """*t* in trace format v2: the header, then zlib of every column at
    its full little-endian width (no width bytes)."""
    body = b"".join(getattr(t, name).astype(
                        getattr(t, name).dtype.newbyteorder("<")).tobytes()
                    for name in t.COLUMNS)
    return (struct.pack("<4sIQ64s", b"RTRC", 2, len(t),
                        memo.trace_digest(t).encode("ascii"))
            + zlib.compress(body, 1))


def test_v2_store_entry_is_rebuilt_and_republished_as_v3(tmp_path):
    store = SharedResultStore(tmp_path / "store")
    skey = compiled_store_key("CCh_st", 0.05, 3)
    stale = {"schema": COMPILE_SCHEMA,
             "b64": base64.b64encode(_v2_bytes(_trace())).decode("ascii")}
    job = types.SimpleNamespace(label="trace:CCh_st",
                                describe=lambda: {"kind": "compiled-trace"})
    store.put(skey, job, stale)
    assert trace_from_payload(store.get(skey)) is None
    built = []

    def build():
        built.append(1)
        return _trace()

    first = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    assert len(built) == 1
    assert global_stats().compile_store_misses == 1
    assert global_stats().compile_store_hits == 0
    raw = base64.b64decode(store.get(skey)["b64"])
    assert struct.unpack_from("<I", raw, 4)[0] == 3  # republished as v3

    memo.clear_caches()
    second = shared_compiled("CCh_st", 0.05, 3, build, store=store)
    assert len(built) == 1
    assert global_stats().compile_store_hits == 1
    assert global_stats().compile_store_misses == 1
    assert memo.trace_digest(second) == memo.trace_digest(first)
