"""Chipyard-style config-fragment tests."""

import pytest

from repro.mem.dram import DDR4_3200_4CH
from repro.soc import (
    BANANA_PI_SIM,
    LARGE_BOOM,
    MILKV_SIM,
    ROCKET1,
    ROCKET2,
    System,
    WithBusWidth,
    WithClock,
    WithCores,
    WithDRAM,
    WithL1Size,
    WithL2Banks,
    WithLLC,
    WithoutLLC,
    WithoutPrefetcher,
    WithPrefetcher,
    WithVectorUnit,
    compose,
)


def test_rocket2_is_rocket1_plus_banks():
    built = compose(ROCKET1, WithL2Banks(4), name="Rocket2")
    assert built.hierarchy == ROCKET2.hierarchy
    assert built.name == "Rocket2"


def test_banana_pi_sim_is_rocket2_plus_bus():
    built = compose(ROCKET2, WithBusWidth(128), name="BananaPiSim")
    assert built.hierarchy == BANANA_PI_SIM.hierarchy


def test_with_clock_rederives_hierarchy_clock():
    fast = compose(BANANA_PI_SIM, WithClock(3.2))
    assert fast.core_ghz == 3.2
    assert fast.hierarchy.core_ghz == 3.2
    System(fast)  # constructs without the clock-mismatch ValueError


def test_with_dram_and_llc():
    cfg = compose(MILKV_SIM, WithDRAM(DDR4_3200_4CH))
    assert "DDR4" in cfg.hierarchy.dram.name
    cfg2 = compose(LARGE_BOOM, WithLLC(32 << 20, simplified=False))
    assert cfg2.hierarchy.llc_bytes == 32 << 20
    assert not cfg2.hierarchy.llc_simplified
    cfg3 = compose(MILKV_SIM, WithoutLLC())
    assert cfg3.hierarchy.llc_bytes is None


def test_with_l1_size():
    big = compose(LARGE_BOOM, WithL1Size(64))
    assert big.hierarchy.l1d.size_bytes == 64 * 1024
    assert big.hierarchy.l1i.size_bytes == 64 * 1024
    with pytest.raises(ValueError):
        compose(LARGE_BOOM, WithL1Size(48))  # 48 KiB / 8 ways: 96 sets


def test_with_cores_and_prefetcher():
    cfg = compose(ROCKET1, WithCores(2), WithPrefetcher())
    assert cfg.ncores == 2
    assert cfg.prefetcher is not None
    assert compose(cfg, WithoutPrefetcher()).prefetcher is None


def test_with_vector_unit_inorder_only():
    cfg = compose(ROCKET1, WithVectorUnit())
    assert cfg.inorder.vector is not None
    with pytest.raises(ValueError):
        compose(LARGE_BOOM, WithVectorUnit())


def test_fragments_leave_base_untouched():
    compose(ROCKET1, WithL2Banks(16), WithBusWidth(256), WithCores(1))
    assert ROCKET1.hierarchy.l2.banks == 1
    assert ROCKET1.hierarchy.bus.width_bits == 64
    assert ROCKET1.ncores == 4


def test_composed_systems_run():
    from repro.workloads.microbench import get_kernel

    cfg = compose(ROCKET1, WithL2Banks(2), WithBusWidth(128),
                  name="Composed")
    r = System(cfg).run(get_kernel("EI").build(scale=0.05))
    assert r.cycles > 0
