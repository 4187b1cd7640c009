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

from dataclasses import dataclass

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

    # -- the access path -------------------------------------------------

    def bind(self):
        """Bind the access path over this DRAM's bank and channel state.

        Returns ``(access, close)``.  ``access(addr, time, is_store)``
        services one line request and returns its completion time.
        Channels interleave at line granularity (maximises channel-level
        parallelism for streams, like real controllers), banks at row
        granularity.  Bank state, channel timelines and in-flight queues
        are used in place; the read/write counts flush at ``close``.  A
        booking at or after a channel timeline's last end appends at its
        tail, and past ``inflight_hw`` no queued request is still live.
        """
        cfg = self.cfg
        st = self.stats
        line_bytes = self.line_bytes
        channels = cfg.channels
        row_div = cfg.row_bytes * channels
        banks_per_chan = self._banks_per_chan
        open_row = self._open_row
        bank_ready = self._bank_ready
        inflight = self._inflight
        #: per channel: no queued request finishes later than this
        inflight_hw = [max(q, default=0.0) for q in inflight]
        cCAS = self._cCAS
        cRCD = self._cRCD
        cRP = self._cRP
        cRAS = self._cRAS
        cCTRL = self._cCTRL
        cREFI = self._cREFI
        cRFC = self._cRFC
        cXFER = self._cXFER
        chan_bus = self._chan_bus
        bus_starts = [tl._starts for tl in chan_bus]
        bus_ends = [tl._ends for tl in chan_bus]
        queue_depth = cfg.queue_depth
        qmax = 4 * queue_depth
        n_access = n_writes = 0

        def access(addr, time, is_store):
            nonlocal n_access, n_writes
            n_access += 1
            if is_store:
                n_writes += 1
            line = addr // line_bytes
            chan = line % channels
            row_global = addr // row_div
            bank = chan * banks_per_chan + row_global % banks_per_chan
            row = row_global // banks_per_chan

            start = time + cCTRL
            # queueing: bound channel-level parallelism
            q = inflight[chan]
            if q:
                if inflight_hw[chan] > start:
                    live = [t for t in q if t > start]
                    if len(live) >= queue_depth:
                        live.sort()
                        wait_until = live[-queue_depth]
                        st.queue_wait_cycles += int(wait_until - start)
                        start = wait_until
                    inflight[chan] = q = live
                else:
                    q.clear()

            # refresh: every tREFI the rank is unavailable for tRFC;
            # commands reaching the device inside the window wait it out
            # (and the refresh closes the open row).  Checked at device
            # time (after queueing); the k=0 window is skipped so runs
            # beginning at t=0 are not phase-aligned with a refresh.
            if cREFI > 0 and start >= cREFI:
                since = start % cREFI
                if since < cRFC:
                    st.refresh_stall_cycles += int(cRFC - since)
                    start += cRFC - since
                    open_row[bank] = -1
            # open-page row-buffer state machine (FR-FCFS: row hits
            # bypass bank busy precharge serialisation but still share
            # the data bus)
            if open_row[bank] == row:
                st.row_hits += 1
                ready = bank_ready[bank] - cRAS  # CAS can overlap tRAS
                if start > ready:
                    ready = start
                access_done = ready + cCAS
                if access_done > bank_ready[bank]:
                    bank_ready[bank] = access_done
            else:
                st.row_misses += 1
                ready = bank_ready[bank]
                if start > ready:
                    ready = start
                pre = cRP if open_row[bank] != -1 else 0.0
                access_done = ready + pre + cRCD + cCAS
                open_row[bank] = row
                bank_ready[bank] = access_done

            # data-bus transfer (serialised per channel)
            xfer_start = float(access_done)
            if cXFER > 0:
                ends = bus_ends[chan]
                if not ends or xfer_start >= ends[-1]:
                    bus_starts[chan].append(xfer_start)
                    ends.append(xfer_start + cXFER)
                else:
                    xfer_start = chan_bus[chan].reserve(access_done, cXFER)
            finish = xfer_start + cXFER
            q.append(finish)
            if finish > inflight_hw[chan]:
                inflight_hw[chan] = finish
            if len(q) > qmax:
                inflight[chan] = [ft for ft in q if ft > finish - 1]
            # writes complete at the controller; the caller does not wait
            # for the array update, but the occupancy above still counts
            if is_store:
                return int(start + cCTRL)
            return int(finish)

        def close():
            st.reads += n_access - n_writes
            st.writes += n_writes

        return access, close

    def __repr__(self) -> str:
        return f"DRAM({self.cfg.name} @ {self.core_ghz} GHz)"
