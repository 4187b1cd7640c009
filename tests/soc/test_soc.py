"""Tests for SoC configs, presets, token lockstep, and multi-tile systems."""

import numpy as np
import pytest

from repro.isa.trace import TraceBuilder
from repro.soc import (
    ALL_CONFIGS,
    BANANA_PI_HW,
    BANANA_PI_SIM,
    FAST_BANANA_PI_SIM,
    LARGE_BOOM,
    MILKV_HW,
    MILKV_SIM,
    ROCKET1,
    SMALL_BOOM,
    LockstepScheduler,
    SoCConfig,
    System,
    TokenChannel,
    get_config,
    table4_rows,
    table5_rows,
)
from repro.soc.config import BranchPredictorConfig


def alu_loop(n):
    b = TraceBuilder()
    for i in range(n):
        b.alu(5 + i % 8, 20, 21)
    t = b.build()
    t.pc[:] = 0x1_0000 + (np.arange(n, dtype=np.uint64) % 64) * 4
    return t


def load_loop(n, base, stride=64):
    b = TraceBuilder()
    for i in range(n):
        b.load(5 + i % 8, base + i * stride)
    t = b.build()
    t.pc[:] = 0x1_0000 + (np.arange(n, dtype=np.uint64) % 64) * 4
    return t


# ------------------------------------------------------------ configs

def test_all_presets_construct_systems():
    for name, cfg in ALL_CONFIGS.items():
        sys_ = System(cfg)
        assert len(sys_.tiles) == cfg.ncores, name


def test_get_config_known_and_unknown():
    assert get_config("Rocket1") is ROCKET1
    with pytest.raises(KeyError):
        get_config("Rocket9")


def test_table4_rows_match_paper():
    rows = {r["Model"]: r for r in table4_rows()}
    assert rows["Rocket1"]["Front End"] == "Fetch:2, Decode:1"
    assert rows["Rocket1"]["L2 Banks"] == "1"
    assert rows["Rocket2"]["L2 Banks"] == "4"
    assert rows["SmallBOOM"]["RoB"] == "RoB:32"
    assert rows["MediumBOOM"]["RoB"] == "RoB:64"
    assert rows["LargeBOOM"]["RoB"] == "RoB:96"
    assert rows["LargeBOOM"]["LSQ"] == "Load:24, Store:24"
    assert rows["LargeBOOM"]["Front End"] == "Fetch:8, Decode:3"


def test_table5_cache_sizes():
    rows = {r["Platform"]: r for r in table5_rows()}
    bp = rows["BananaPi-K1"]
    assert bp["HW L1D"] == "32 KiB" and bp["Sim L1D"] == "32 KiB"
    assert bp["HW L2"] == "512 KiB" and bp["Sim L2"] == "512 KiB"
    assert bp["HW LLC"] == "None"
    mv = rows["MILKV-SG2042"]
    assert mv["HW L1D"] == "64 KiB" and mv["Sim L1D"] == "64 KiB"
    assert mv["HW L2"] == "1024 KiB" and mv["Sim L2"] == "1024 KiB"
    assert mv["HW LLC"] == "64 MiB" and mv["Sim LLC"] == "64 MiB"
    assert "DDR3" in mv["Sim memory"] and "DDR4" in mv["HW memory"]
    assert "LPDDR4" in bp["HW memory"]


def test_fast_model_is_double_clock():
    assert FAST_BANANA_PI_SIM.core_ghz == pytest.approx(2 * BANANA_PI_SIM.core_ghz)
    assert FAST_BANANA_PI_SIM.hierarchy.dram == BANANA_PI_SIM.hierarchy.dram


def test_silicon_models_flagged():
    assert BANANA_PI_HW.is_silicon and MILKV_HW.is_silicon
    assert not ROCKET1.is_silicon
    assert BANANA_PI_HW.prefetcher is not None
    assert BANANA_PI_SIM.prefetcher is None


def test_config_validation():
    with pytest.raises(ValueError):
        SoCConfig(name="x", core_type="inorder")  # missing inorder cfg
    with pytest.raises(ValueError):
        SoCConfig(name="x", core_type="vliw", inorder=ROCKET1.inorder)
    with pytest.raises(ValueError):
        BranchPredictorConfig(kind="perceptron")


def test_with_ablation_helper():
    faster = ROCKET1.with_(name="Rocket1-3GHz", core_ghz=3.0,
                           hierarchy=ROCKET1.hierarchy.__class__(
                               **{**ROCKET1.hierarchy.__dict__, "core_ghz": 3.0}))
    assert faster.core_ghz == 3.0
    assert ROCKET1.core_ghz == 1.6  # original untouched


def test_seconds_conversion():
    assert ROCKET1.seconds(1_600_000_000) == pytest.approx(1.0)
    assert MILKV_SIM.seconds(2_000_000_000) == pytest.approx(1.0)


# ------------------------------------------------------------ tokens

def test_token_channel_flow():
    ch = TokenChannel(capacity=4)
    ch.produce(3)
    assert ch.occupancy == 3
    ch.consume(2)
    assert ch.occupancy == 1
    with pytest.raises(RuntimeError):
        ch.produce(4)
    with pytest.raises(RuntimeError):
        ch.consume(2)


def test_token_channel_validation():
    with pytest.raises(ValueError):
        TokenChannel(0)
    with pytest.raises(ValueError):
        LockstepScheduler(0)


class FakeLane:
    def __init__(self, total):
        self.t = 0
        self.total = total
        self.trace_of_calls = []

    def local_time(self):
        return self.t

    def advance(self, until):
        self.trace_of_calls.append(until)
        self.t = min(until, self.total)
        return self.t < self.total


def run_to_completion(sched, lanes):
    sched.bind(lanes)
    while sched.step():
        pass


def test_scheduler_bounds_skew():
    lanes = [FakeLane(100_000), FakeLane(50_000)]
    sched = LockstepScheduler(quantum=1000)
    run_to_completion(sched, lanes)
    assert lanes[0].t == 100_000
    assert lanes[1].t == 50_000
    assert sched.stats.max_skew <= 51_000  # bounded while both were live


def test_scheduler_least_advanced_first():
    lanes = [FakeLane(3000), FakeLane(3000)]
    run_to_completion(LockstepScheduler(quantum=1000), lanes)
    # both should have been interleaved, not run to completion one by one
    assert lanes[0].trace_of_calls[0] == 1000
    assert lanes[1].trace_of_calls[0] == 1000


# ------------------------------------------------------------ systems

def test_single_tile_run():
    sys_ = System(ROCKET1)
    r = sys_.run(alu_loop(2000))
    assert r.instructions == 2000
    assert 0.5 < r.ipc <= 1.0


def test_dual_issue_silicon_faster_than_rocket():
    t = alu_loop(4000)
    r_sim = System(BANANA_PI_SIM).run(t)
    r_hw = System(BANANA_PI_HW).run(t)
    assert r_hw.cycles < r_sim.cycles * 0.7


def test_parallel_ranks_share_uncore():
    """Four streaming tiles contend for DRAM: slower than one tile alone."""
    n = 3000
    solo = System(ROCKET1)
    r_solo = solo.run(load_loop(n, 0x100_0000, stride=4096))
    quad = System(ROCKET1)
    traces = [load_loop(n, 0x100_0000 + i * 0x100_0000, stride=4096)
              for i in range(4)]
    rs = quad.run_parallel(traces)
    assert all(r.instructions == n for r in rs)
    slowest = max(r.cycles for r in rs)
    assert slowest > r_solo.cycles * 1.3  # contention visible


def test_parallel_validates_lane_count():
    sys_ = System(ROCKET1)
    with pytest.raises(ValueError):
        sys_.run_parallel([alu_loop(10)] * 5)


def test_parallel_deterministic():
    def go():
        s = System(SMALL_BOOM)
        traces = [load_loop(1500, 0x100_0000 + i * 0x40_0000, stride=256)
                  for i in range(4)]
        return [r.cycles for r in s.run_parallel(traces)]

    assert go() == go()


def test_milkv_sim_has_simplified_llc_and_hw_realistic():
    s_sim = System(MILKV_SIM)
    s_hw = System(MILKV_HW)
    assert s_sim.uncore.llc is not None
    assert s_hw.uncore.llc is not None
    # simplified slices have single-digit hit latency; realistic ~38
    assert s_sim.uncore.llc.slices[0].cfg.hit_latency <= 8
    assert s_hw.uncore.llc.slices[0].cfg.hit_latency >= 30


def test_prefetcher_attached_only_on_silicon():
    assert System(BANANA_PI_HW).tiles[0].port.prefetcher is not None
    assert System(BANANA_PI_SIM).tiles[0].port.prefetcher is None


def test_prefetcher_helps_streaming():
    # streaming loads feeding dependent consumers: without a prefetcher
    # every line is a demand miss the consumer waits for
    b = TraceBuilder()
    for i in range(3000):
        dst = 5 + i % 8
        b.load(dst, 0x200_0000 + i * 64)
        b.alu(15, dst, 20)
    t = b.build()
    t.pc[:] = 0x1_0000 + (np.arange(len(t), dtype=np.uint64) % 64) * 4
    r_hw = System(BANANA_PI_HW).run(t)
    no_pf = BANANA_PI_HW.with_(name="K1-noPF", prefetcher=None)
    r_nopf = System(no_pf).run(t)
    assert r_hw.cycles < 0.8 * r_nopf.cycles
