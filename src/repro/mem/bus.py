"""System-bus model: width-limited, arbitrated transfer between cache levels.

The paper's Rocket2 / Banana Pi Sim Model configurations widen the system
bus from 64 to 128 bits (Table 4); the bus model makes that knob visible as
transfer beats per cache line plus contention between tiles.  The bus
holds its configuration, occupancy timeline and stats; the transfer
itself is one step of the walk :meth:`repro.mem.hierarchy.Uncore.bind`
binds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timeline import OccupancyTimeline

__all__ = ["BusConfig", "SystemBus", "BusStats"]


@dataclass(frozen=True)
class BusConfig:
    width_bits: int = 64
    #: bus clock as a fraction of the core clock (1.0 = same domain)
    clock_ratio: float = 1.0
    #: fixed arbitration/propagation latency in core cycles
    arbitration_latency: int = 1

    def __post_init__(self) -> None:
        if self.width_bits <= 0 or self.width_bits % 8:
            raise ValueError("width_bits must be a positive multiple of 8")
        if self.clock_ratio <= 0:
            raise ValueError("clock_ratio must be positive")

    def beats(self, bytes_: int) -> int:
        """Number of bus beats to move *bytes_*."""
        per_beat = self.width_bits // 8
        return -(-bytes_ // per_beat)


@dataclass
class BusStats:
    transfers: int = 0
    contention_cycles: int = 0


class SystemBus:
    """Single shared bus with per-transfer occupancy.

    A line transfer books ``beats / clock_ratio`` cycles on the timeline
    and completes ``arbitration_latency`` cycles after its booking ends;
    back-to-back requests from multiple tiles queue behind each other,
    which is how multi-core memory contention appears below the private
    caches.
    """

    def __init__(self, cfg: BusConfig, name: str = "sbus") -> None:
        self.cfg = cfg
        self.name = name
        self.stats = BusStats()
        # interval timeline: requesters' clocks may be mutually skewed
        self._timeline = OccupancyTimeline()

    def __repr__(self) -> str:
        return f"SystemBus({self.cfg.width_bits}-bit)"
