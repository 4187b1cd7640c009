"""A dropped System must be reclaimed by reference counting alone.

Sweeps build and drop one System per configuration point; each holds
numpy tag arrays and predictor tables.  A reference cycle anywhere in the
object graph (a class defined per TilePort, a cached engine pointing back
at its core) leaves every dropped System waiting for the cyclic collector
and the sweep's peak RSS rising with pass count.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.soc.presets import get_config
from repro.soc.system import System
from repro.workloads.microbench import get_kernel


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["BananaPiSim", "BananaPi-K1", "LargeBOOM"])
@pytest.mark.parametrize("ran", [False, True], ids=["fresh", "after_run"])
def test_dropped_system_dies_without_the_collector(name, ran, no_collector):
    system = System(get_config(name))
    if ran:
        system.run(get_kernel("MD").build(scale=0.05))
    probes = [weakref.ref(system.uncore), weakref.ref(system.tiles[0].core),
              weakref.ref(system.tiles[0].port)]
    del system
    assert [p() for p in probes] == [None, None, None]
