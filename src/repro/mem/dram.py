"""DRAM timing models: DDR3 FR-FCFS (FireSim's model), DDR4, and LPDDR4.

FireSim ships only a DDR3-2000 FR-FCFS quad-rank model; the real boards use
LPDDR4-2666 (Banana Pi) and 4-channel DDR4-3200 (MILK-V).  The paper
identifies this mismatch as the dominant source of error on memory-bound
workloads, so the DRAM models here are mechanistic: per-channel command-bus
occupancy, per-bank row-buffer state machines, FR-FCFS-style row-hit
prioritisation, and data-bus transfer time derived from the channel width
and data rate.

All external times are **core clock cycles**; device parameters are given
in nanoseconds and converted using the core frequency, so raising the core
clock (the paper's "Fast Banana Pi" trick) correctly makes DRAM *relatively*
slower.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .timeline import OccupancyTimeline

__all__ = [
    "DRAMTimings",
    "DRAMConfig",
    "DRAM",
    "DRAMStats",
    "DDR3_2000_QUAD_RANK",
    "DDR4_3200_4CH",
    "LPDDR4_2666_DUAL",
]


@dataclass(frozen=True)
class DRAMTimings:
    """Device timing parameters in nanoseconds."""

    tCAS: float = 13.75   #: column access (CL)
    tRCD: float = 13.75   #: row-to-column delay
    tRP: float = 13.75    #: row precharge
    tRAS: float = 35.0    #: row active minimum
    tCTRL: float = 5.0    #: controller/PHY overhead per request
    tREFI: float = 7800.0 #: average refresh interval
    tRFC: float = 350.0   #: refresh cycle time (all banks busy)


@dataclass(frozen=True)
class DRAMConfig:
    """Organization plus per-channel data-path parameters."""

    name: str = "ddr3"
    channels: int = 1
    ranks: int = 4
    banks_per_rank: int = 8
    row_bytes: int = 8192
    data_rate_mtps: float = 2000.0  #: mega-transfers per second per pin
    channel_bits: int = 64          #: data-bus width per channel
    timings: DRAMTimings = DRAMTimings()
    #: max in-flight requests per channel before queueing delay kicks in
    queue_depth: int = 8

    def __post_init__(self) -> None:
        for name in ("channels", "ranks", "banks_per_rank", "row_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.data_rate_mtps <= 0 or self.channel_bits <= 0:
            raise ValueError("data rate and channel width must be positive")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be at least 1, got {self.queue_depth}")

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth in GB/s across channels."""
        return self.channels * self.channel_bits / 8 * self.data_rate_mtps / 1000.0

    def transfer_ns(self, bytes_: int) -> float:
        """Time to move *bytes_* over one channel's data bus."""
        return bytes_ * 8 / (self.channel_bits * self.data_rate_mtps * 1e6) * 1e9


#: FireSim's supported model: DDR3-2000, FR-FCFS, quad rank, one 64-bit channel
#: per memory channel instance (paper Table 5).
DDR3_2000_QUAD_RANK = DRAMConfig(
    name="DDR3-2000 FR-FCFS quad-rank",
    channels=1,
    ranks=4,
    banks_per_rank=8,
    data_rate_mtps=2000.0,
    channel_bits=64,
    timings=DRAMTimings(tCAS=13.75, tRCD=13.75, tRP=13.75, tRAS=35.0, tCTRL=6.0),
)

#: MILK-V Pioneer external memory: 4-channel DDR4-3200.
DDR4_3200_4CH = DRAMConfig(
    name="DDR4-3200 4-channel",
    channels=4,
    ranks=2,
    banks_per_rank=16,
    data_rate_mtps=3200.0,
    channel_bits=64,
    timings=DRAMTimings(tCAS=13.75, tRCD=13.75, tRP=13.75, tRAS=32.0, tCTRL=4.0),
)

#: Banana Pi external memory: dual 32-bit LPDDR4-2666.
LPDDR4_2666_DUAL = DRAMConfig(
    name="LPDDR4-2666 dual 32-bit",
    channels=2,
    ranks=1,
    banks_per_rank=8,
    data_rate_mtps=2666.0,
    channel_bits=32,
    timings=DRAMTimings(tCAS=15.0, tRCD=15.0, tRP=15.0, tRAS=34.0, tCTRL=5.0),
)


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    queue_wait_cycles: int = 0
    refresh_stall_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def reset(self) -> None:
        self.__init__()


class DRAM:
    """Mechanistic DRAM channel/bank timing model.

    Parameters
    ----------
    cfg:
        Device organization and timings.
    core_ghz:
        Frequency of the clock in which callers express time; all returned
        times are in cycles of that clock.
    line_bytes:
        Request granularity (cache line).
    """

    def __init__(self, cfg: DRAMConfig, core_ghz: float, line_bytes: int = 64) -> None:
        if core_ghz <= 0:
            raise ValueError("core_ghz must be positive")
        self.cfg = cfg
        self.core_ghz = float(core_ghz)
        self.line_bytes = int(line_bytes)
        self.stats = DRAMStats()
        nbanks = cfg.channels * cfg.ranks * cfg.banks_per_rank
        # per-bank state
        self._open_row = [-1] * nbanks
        self._bank_ready = [0.0] * nbanks
        # per-channel data-bus occupancy (interval-tracked for skewed
        # multi-tile request streams)
        self._chan_bus = [OccupancyTimeline() for _ in range(cfg.channels)]
        self._inflight: list[list[float]] = [[] for _ in range(cfg.channels)]
        # precomputed cycle counts
        ghz = self.core_ghz
        t = cfg.timings
        self._cCAS = t.tCAS * ghz
        self._cRCD = t.tRCD * ghz
        self._cRP = t.tRP * ghz
        self._cRAS = t.tRAS * ghz
        self._cCTRL = t.tCTRL * ghz
        self._cREFI = t.tREFI * ghz
        self._cRFC = t.tRFC * ghz
        self._cXFER = cfg.transfer_ns(self.line_bytes) * ghz
        self._banks_per_chan = cfg.ranks * cfg.banks_per_rank

    # -- address mapping ------------------------------------------------------

    def map_address(self, addr: int) -> tuple[int, int, int]:
        """Map a byte address to (channel, global bank index, row).

        Channel interleave at line granularity (maximises channel-level
        parallelism for streams, like real controllers); bank interleave at
        row granularity.
        """
        cfg = self.cfg
        line = addr // self.line_bytes
        chan = line % cfg.channels
        row_global = addr // (cfg.row_bytes * cfg.channels)
        bank_in_chan = row_global % self._banks_per_chan
        row = row_global // self._banks_per_chan
        return chan, chan * self._banks_per_chan + bank_in_chan, row

    # -- access -----------------------------------------------------------

    def access(self, addr: int, time: int, is_store: bool = False) -> int:
        """Service a line request at *time*; return completion time (cycles)."""
        st = self.stats
        if is_store:
            st.writes += 1
        else:
            st.reads += 1
        chan, bank, row = self.map_address(int(addr))

        start = time + self._cCTRL

        # queueing: bound channel-level parallelism
        q = self._inflight[chan]
        if q:
            live = [t for t in q if t > start]
            if len(live) >= self.cfg.queue_depth:
                live.sort()
                wait_until = live[-self.cfg.queue_depth]
                st.queue_wait_cycles += int(wait_until - start)
                start = wait_until
            self._inflight[chan] = live

        # refresh: every tREFI the rank is unavailable for tRFC; commands
        # reaching the device inside the window wait it out (and the
        # refresh closes the open row).  Checked at device time (after
        # queueing); the k=0 window is skipped so runs beginning at t=0
        # are not artificially phase-aligned with a refresh.
        if self._cREFI > 0 and start >= self._cREFI:
            since = start % self._cREFI
            if since < self._cRFC:
                st.refresh_stall_cycles += int(self._cRFC - since)
                start += self._cRFC - since
                self._open_row[bank] = -1
        # open-page row-buffer state machine (FR-FCFS: row hits bypass
        # bank busy precharge serialisation but still share the data bus)
        if self._open_row[bank] == row:
            st.row_hits += 1
            ready = max(start, self._bank_ready[bank] - self._cRAS)  # CAS can overlap tRAS
            access_done = max(ready, start) + self._cCAS
            self._bank_ready[bank] = max(self._bank_ready[bank], access_done)
        else:
            st.row_misses += 1
            ready = max(start, self._bank_ready[bank])
            pre = self._cRP if self._open_row[bank] != -1 else 0.0
            access_done = ready + pre + self._cRCD + self._cCAS
            self._open_row[bank] = row
            self._bank_ready[bank] = access_done

        # data-bus transfer (serialised per channel)
        xfer_start = self._chan_bus[chan].reserve(access_done, self._cXFER)
        finish = xfer_start + self._cXFER
        self._inflight[chan].append(finish)
        if len(self._inflight[chan]) > 4 * self.cfg.queue_depth:
            self._inflight[chan] = [t for t in self._inflight[chan] if t > finish - 1]

        # writes complete at the controller; the caller shouldn't wait for
        # the array update, but the bus/bank occupancy above still counts.
        if is_store:
            return int(start + self._cCTRL)
        return int(finish)

    # -- introspection ------------------------------------------------------

    @property
    def idle_latency_cycles(self) -> float:
        """Unloaded row-miss latency in core cycles (sanity metric)."""
        return self._cCTRL + self._cRCD + self._cCAS + self._cXFER

    def reset(self) -> None:
        nbanks = self.cfg.channels * self._banks_per_chan
        self._open_row = [-1] * nbanks
        self._bank_ready = [0.0] * nbanks
        self._chan_bus = [OccupancyTimeline() for _ in range(self.cfg.channels)]
        self._inflight = [[] for _ in range(self.cfg.channels)]
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"DRAM({self.cfg.name}, {self.cfg.peak_bandwidth_gbps:.1f} GB/s peak, "
            f"idle={self.idle_latency_cycles:.0f} cyc @ {self.core_ghz} GHz)"
        )


def scale_to_frequency(cfg: DRAMConfig, factor: float) -> DRAMConfig:
    """Return a config whose data rate is scaled by *factor* (for ablations)."""
    return replace(cfg, data_rate_mtps=cfg.data_rate_mtps * factor,
                   name=f"{cfg.name} x{factor:g}")
