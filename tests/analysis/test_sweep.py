"""Parameter-sweep utility tests."""

import pytest

from repro.analysis.sweep import sweep_configs, sweep_knob
from repro.soc import BANANA_PI_HW, BANANA_PI_SIM, ROCKET1
from repro.soc.fragments import WithClock, WithL1Size


def test_sweep_configs_ordering():
    r = sweep_configs([ROCKET1, BANANA_PI_SIM, BANANA_PI_HW], "EI", scale=0.05)
    assert [p.label for p in r.points] == ["Rocket1", "BananaPiSim",
                                           "BananaPi-K1"]
    # dual-issue silicon is fastest on independent integer work
    assert r.best().label == "BananaPi-K1"


def test_sweep_knob_clock():
    r = sweep_knob(ROCKET1, WithClock, [1.6, 3.2], "EI", scale=0.05)
    assert len(r.points) == 2
    # 2x clock halves a compute kernel's time
    assert r.speedup() == pytest.approx(2.0, rel=0.05)


def test_sweep_knob_l1_size_monotone_on_cache_kernel():
    r = sweep_knob(ROCKET1, WithL1Size, [16, 64], "MI", scale=0.1)
    # bigger L1 never hurts the cache-resident random-access kernel
    assert r.points[1].seconds <= r.points[0].seconds * 1.02


def test_sweep_rows_and_degenerate_speedup():
    r = sweep_configs([ROCKET1], "EI", scale=0.05)
    assert r.speedup() == 1.0
    rows = r.rows()
    assert rows[0]["Setting"] == "Rocket1"
    assert rows[0]["Cycles"] > 0


def test_sweep_knob_rejects_colliding_labels():
    """Two values with the same str() would silently collapse into one
    sweep row (and one batched payload key) — refuse instead."""
    class GHz(float):
        def __str__(self):
            return "nominal"

    with pytest.raises(ValueError, match="duplicate labels"):
        sweep_knob(ROCKET1, WithClock, [GHz(1.6), GHz(3.2)], "EI",
                   scale=0.05)


def test_sweep_configs_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        sweep_configs([ROCKET1, ROCKET1.with_(ncores=1)], "EI",
                      scale=0.05)


def test_sweep_configs_batched_bit_identical():
    """batched=True routes through the config-batched engine; points
    must match the per-config jobs value for value, in input order."""
    from repro.accel import memo

    cfgs = [ROCKET1, BANANA_PI_SIM, BANANA_PI_HW]
    serial = sweep_configs(cfgs, "EI", scale=0.05)
    memo.clear_caches()
    batched = sweep_configs(cfgs, "EI", scale=0.05, batched=True)
    assert batched.points == serial.points


def test_sweep_knob_batched_bit_identical():
    from repro.accel import memo

    serial = sweep_knob(ROCKET1, WithClock, [1.6, 3.2], "EI", scale=0.05)
    memo.clear_caches()
    batched = sweep_knob(ROCKET1, WithClock, [1.6, 3.2], "EI",
                         scale=0.05, batched=True)
    assert batched.points == serial.points
