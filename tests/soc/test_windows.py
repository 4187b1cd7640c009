"""Chunked runs execute windows of their trace, never slices of it.

Lockstep lanes and MPI ranks keep an offset into their trace and run
``core.run(trace, start=offset, stop=offset + chunk)``; a window compiles
its own column views and is not cached on the trace."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa.trace import Trace
from repro.smpi import SMPIRuntime
from repro.soc.presets import get_config
from repro.soc.system import System

from ..core import loop_pins


def test_chunked_runs_neither_slice_nor_cache(monkeypatch):
    lane = loop_pins.chunky_trace()
    rank = loop_pins.marker_trace(3000)

    def no_slicing(self, sl):
        raise AssertionError("a chunked run sliced its trace")

    monkeypatch.setattr(Trace, "__getitem__", no_slicing)

    result = System(get_config("BananaPiSim")).run_parallel(
        [lane], quantum=512, chunk=300)[0]
    assert result.instructions == len(lane)

    def program(comm):
        yield from comm.compute(rank)

    ranks = SMPIRuntime(System(get_config("MediumBOOM")), 2,
                        chunk=1000).run(program)
    assert [r.instructions for r in ranks] == [len(rank)] * 2
    assert lane._compiled is None and rank._compiled is None


#: mixed ops, then simple ones, across the 2048-uop seam of chunky_trace
_TRACE = loop_pins.chunky_trace()[1200:2700]


def _ended(system) -> dict:
    """Digests of the branch/cache counters and the captured state."""
    stats = loop_pins.stats(system)
    stats.pop("scheduler")
    return {"stats": loop_pins.digest(stats),
            "state": loop_pins.digest(loop_pins.state(system))}


@pytest.mark.parametrize("name", ["BananaPi-K1", "MediumBOOM"])
@given(chunk=st.integers(1, 700))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_lockstep_lane_equals_running_slices(name, chunk):
    cfg = get_config(name)
    lockstep = System(cfg)
    result = lockstep.run_parallel([_TRACE], quantum=700, chunk=chunk)[0]
    sliced = System(cfg)
    expected = loop_pins.run_chunks(sliced, _TRACE, chunk)
    assert result == expected
    assert _ended(lockstep) == _ended(sliced)
