"""Unit tests for the DRAM timing models."""

import dataclasses

import pytest

from repro.mem.dram import (
    DDR3_2000_QUAD_RANK,
    DDR4_3200_4CH,
    DRAM,
    DRAMConfig,
    DRAMTimings,
    LPDDR4_2666_DUAL,
)

from ..conftest import Bound
from ..core import loop_pins


def peak_gbps(cfg):
    """Aggregate pin bandwidth in GB/s across channels."""
    return cfg.channels * cfg.channel_bits / 8 * cfg.data_rate_mtps / 1000.0


def dram(cfg, core_ghz):
    return Bound(DRAM(cfg, core_ghz))


def test_peak_bandwidths_match_datasheets():
    # DDR3-2000 x64: 16 GB/s; DDR4-3200 x64 x4ch: 102.4 GB/s;
    # LPDDR4-2666 x32 x2ch: 21.3 GB/s
    assert peak_gbps(DDR3_2000_QUAD_RANK) == pytest.approx(16.0)
    assert peak_gbps(DDR4_3200_4CH) == pytest.approx(102.4)
    assert peak_gbps(LPDDR4_2666_DUAL) == pytest.approx(21.328, rel=1e-3)


def test_idle_latency_reasonable():
    d = dram(DDR3_2000_QUAD_RANK, core_ghz=1.6)
    # idle miss latency should be tens of ns -> 50..120 cycles at 1.6 GHz
    assert 40 < d.access(0, 0) < 150


def test_row_hit_faster_than_row_miss():
    d = dram(DDR3_2000_QUAD_RANK, core_ghz=1.6)
    t1 = d.access(0, 0)                 # row miss (cold)
    t2 = d.access(64, t1 + 10) - (t1 + 10)  # same row -> hit
    d2 = dram(DDR3_2000_QUAD_RANK, core_ghz=1.6)
    t3 = d2.access(0, 0)
    # different row, same bank
    far = DDR3_2000_QUAD_RANK.row_bytes * DDR3_2000_QUAD_RANK.banks_per_rank * 4 * 8
    t4 = d2.access(far, t3 + 10) - (t3 + 10)
    assert t2 < t4
    assert d.stats.row_hits == 1


def test_channel_interleave_parallelism():
    """4-channel DDR4 streams faster than 1-channel DDR3 under load."""
    ddr3 = dram(DDR3_2000_QUAD_RANK, core_ghz=2.0)
    ddr4 = dram(DDR4_3200_4CH, core_ghz=2.0)
    n = 200
    t3 = t4 = 0
    for i in range(n):
        t3 = ddr3.access(i * 64, 0)
        t4 = ddr4.access(i * 64, 0)
    assert t4 < t3 / 2  # 4 channels + higher rate >= 2x throughput


def test_bandwidth_under_saturation():
    """Sustained stream throughput should approach (but not exceed) peak."""
    d = dram(DDR3_2000_QUAD_RANK, core_ghz=2.0)
    n = 2000
    finish = 0
    for i in range(n):
        finish = d.access(i * 64, 0)
    seconds = finish / 2.0e9
    gbps = n * 64 / seconds / 1e9
    assert gbps <= peak_gbps(DDR3_2000_QUAD_RANK) * 1.001
    # this conservative queue model (depth 8, refresh, row misses)
    # sustains ~40-50% of the pin rate on a single request stream
    assert gbps > peak_gbps(DDR3_2000_QUAD_RANK) * 0.38


def test_higher_core_clock_means_more_cycles():
    """Same DRAM at a faster core clock costs more core cycles (paper's
    Fast Banana Pi observation)."""
    d16 = dram(DDR3_2000_QUAD_RANK, core_ghz=1.6)
    d32 = dram(DDR3_2000_QUAD_RANK, core_ghz=3.2)
    # one cold read each: the idle latency, truncated to whole cycles
    assert d32.access(0, 0) == pytest.approx(2 * d16.access(0, 0), abs=2)


def test_queue_depth_limits_inflight():
    cfg = DRAMConfig(queue_depth=2, channels=1)
    d = dram(cfg, core_ghz=2.0)
    for i in range(16):
        d.access(i * 64, 0)
    assert d.stats.queue_wait_cycles > 0


def test_writes_return_early():
    d = dram(DDR3_2000_QUAD_RANK, core_ghz=2.0)
    tw = d.access(0, 0, is_store=True)
    d = dram(DDR3_2000_QUAD_RANK, core_ghz=2.0)
    tr = d.access(0, 0, is_store=False)
    assert tw < tr


def test_map_address_spreads_channels():
    d = dram(DDR4_3200_4CH, core_ghz=2.0)
    for i in range(8):
        d.access(i * 64, 0)
    # line interleave: two transfers booked on each channel's data bus
    assert [len(tl._starts) for tl in d._chan_bus] == [2, 2, 2, 2]


def test_config_validation():
    with pytest.raises(ValueError):
        DRAMConfig(channels=0)
    with pytest.raises(ValueError):
        DRAMConfig(data_rate_mtps=-1)
    with pytest.raises(ValueError):
        DRAM(DDR3_2000_QUAD_RANK, core_ghz=0)


@pytest.mark.parametrize("depth", [0, -3])
def test_queue_depth_below_one_is_rejected(depth):
    """``queue_depth=0`` used to construct: the reference then indexed
    an empty list (``live[-0]``) while the engine ran on."""
    with pytest.raises(ValueError, match="queue_depth"):
        DRAMConfig(queue_depth=depth)
    with pytest.raises(ValueError, match="queue_depth"):
        dataclasses.replace(LPDDR4_2666_DUAL, queue_depth=depth)


def test_queue_depth_one_runs_the_same_on_both_engines():
    """MM on BananaPiSim with one-deep DRAM queues, as pinned."""
    loop_pins.check("dram_queue_depth_one/BananaPiSim")


def test_transfer_time_scales_with_width():
    t_ddr3 = DDR3_2000_QUAD_RANK.transfer_ns(64)
    t_lp = LPDDR4_2666_DUAL.transfer_ns(64)
    # 32-bit LPDDR4-2666 channel moves a line slower than 64-bit DDR3-2000
    assert t_lp > t_ddr3


def test_refresh_windows_stall_requests():
    """Requests landing inside a tRFC window wait for the refresh."""
    cfg = DRAMConfig(timings=DRAMTimings(tREFI=1000.0, tRFC=100.0))
    d = dram(cfg, core_ghz=1.0)
    # t=1010 is inside the refresh window [1000, 1100)
    t_in = d.access(0, 1010)
    d2 = dram(cfg, core_ghz=1.0)
    t_out = d2.access(0, 1150)  # outside the window
    assert d.stats.refresh_stall_cycles > 0
    assert t_in - 1010 > t_out - 1150  # the stalled request took longer


def test_refresh_closes_open_rows():
    cfg = DRAMConfig(timings=DRAMTimings(tREFI=2000.0, tRFC=100.0))
    d = dram(cfg, core_ghz=1.0)
    d.access(0, 200)          # opens a row, outside any refresh window
    d.access(64, 2010)        # lands inside the second window [2000, 2100)
    # the second access was a row miss: refresh closed the row
    assert d.stats.row_hits == 0
    assert d.stats.row_misses == 2


def test_refresh_overhead_is_small_in_steady_state():
    """tRFC/tREFI ~ 4.5%: streaming throughput barely changes."""
    d = dram(DDR3_2000_QUAD_RANK, core_ghz=2.0)
    n = 2000
    finish = 0
    for i in range(n):
        finish = d.access(i * 64, 0)
    gbps = n * 64 / (finish / 2.0e9) / 1e9
    assert gbps > peak_gbps(DDR3_2000_QUAD_RANK) * 0.38
