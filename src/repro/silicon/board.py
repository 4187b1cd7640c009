"""Physical-board stand-ins: run workloads on the silicon reference models.

In the paper these measurements come from an actual Banana Pi BPI-F3 and a
MILK-V Pioneer at LSU; here they come from the independently parameterised
silicon models in :mod:`repro.soc.presets` (see DESIGN.md for the
substitution argument).  The :class:`Board` API intentionally looks like a
benchmarking harness — run, get seconds — not like a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.trace import Trace
from ..soc.config import SoCConfig
from ..soc.presets import BANANA_PI_HW, MILKV_HW
from ..soc.system import System

__all__ = ["Measurement", "Board", "banana_pi", "milkv_pioneer"]


@dataclass
class Measurement:
    """A timed run on (model of) real hardware."""

    platform: str
    seconds: float
    cycles: int
    instructions: int = 0

    def __str__(self) -> str:
        return f"[{self.platform}] {self.seconds * 1e3:.3f} ms"


class Board:
    """A benchmark harness bound to one hardware platform model."""

    def __init__(self, config: SoCConfig) -> None:
        if not config.is_silicon:
            raise ValueError(
                f"{config.name} is a FireSim design; Board wraps the "
                "physical-hardware references"
            )
        self.config = config
        self.system = System(config)

    def time_trace(self, trace: Trace, warmup: bool = True) -> Measurement:
        """Time a single-core kernel (with a warmup pass, as `perf` runs do)."""
        if warmup:
            self.system.run(trace)
        result = self.system.run(trace)
        return Measurement(
            platform=self.config.name,
            seconds=result.cycles / (self.config.core_ghz * 1e9),
            cycles=result.cycles,
            instructions=result.instructions,
        )


def banana_pi() -> Board:
    """The Banana Pi BPI-F3 (SpacemiT K1) reference."""
    return Board(BANANA_PI_HW)


def milkv_pioneer() -> Board:
    """The MILK-V Pioneer (SOPHON SG2042) reference."""
    return Board(MILKV_HW)
