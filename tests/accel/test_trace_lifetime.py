"""A trace's digest and compiled form live on the trace and die with it:
no process-wide cache pins them, and no reference cycle needs the cyclic
collector to free them."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.accel import memo
from repro.accel.compile import compiled_trace, shared_compiled
from repro.isa.serialize import decode_trace, encode_trace
from repro.workloads.microbench import get_kernel


@pytest.fixture
def no_cyclic_gc():
    memo.clear_caches()
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()
    memo.clear_caches()


def _trace():
    return get_kernel("MM").build(scale=0.05, seed=1)


def test_trace_and_compiled_form_are_freed_by_refcount(no_cyclic_gc):
    trace = _trace()
    memo.trace_digest(trace)
    ct = compiled_trace(trace)
    ct.issue_flags()
    trace_ref, ct_ref = weakref.ref(trace), weakref.ref(ct)
    del trace, ct
    assert trace_ref() is None and ct_ref() is None


def test_decoded_trace_is_freed_by_refcount(no_cyclic_gc):
    trace = decode_trace(encode_trace(_trace()))
    compiled_trace(trace)
    ref = weakref.ref(trace)
    del trace
    assert ref() is None


def test_evicted_shared_trace_is_freed_by_refcount(no_cyclic_gc):
    trace = shared_compiled("MM", 0.05, 1, _trace)
    ref = weakref.ref(trace)
    del trace
    assert ref() is not None  # still held by the shared-trace cache
    memo.clear_caches()
    assert ref() is None
