"""Common result/statistics types and the core-model interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..isa.trace import Trace

__all__ = ["CoreResult", "CoreModel"]


@dataclass
class CoreResult:
    """Outcome of running a trace on a core timing model."""

    cycles: int
    instructions: int
    #: stall-cycle attribution (approximate, for analysis — keys like
    #: "frontend", "mem", "dep", "structural")
    stalls: dict[str, int] = field(default_factory=dict)
    branches: int = 0
    mispredicts: int = 0
    l1d_misses: int = 0
    l1i_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def __add__(self, other: "CoreResult") -> "CoreResult":
        stalls = dict(self.stalls)
        for k, v in other.stalls.items():
            stalls[k] = stalls.get(k, 0) + v
        return CoreResult(
            cycles=self.cycles + other.cycles,
            instructions=self.instructions + other.instructions,
            stalls=stalls,
            branches=self.branches + other.branches,
            mispredicts=self.mispredicts + other.mispredicts,
            l1d_misses=self.l1d_misses + other.l1d_misses,
            l1i_misses=self.l1i_misses + other.l1i_misses,
        )


class CoreModel(abc.ABC):
    """A core timing model bound to a :class:`repro.mem.TilePort`."""

    @abc.abstractmethod
    def run(self, trace: Trace, start_time: int = 0, start: int = 0,
            stop: int | None = None) -> CoreResult:
        """Run ``trace[start:stop]`` from cycle *start_time*; return timing."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all microarchitectural state (predictors keep warm caches?
        No — reset clears everything; use warmup runs to train)."""
