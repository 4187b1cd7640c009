"""Last-level cache models.

FireSim's LLC model is deliberately simplified: "it behaves like an SRAM
and does not account for detailed cache system latencies such as tag access
delay or data retrieval latency" (paper §4).  :class:`SimplifiedLLC`
reproduces that — exact tag state, but an idealised constant (low) latency
on hits and no tag-lookup charge on the miss path.

:class:`RealisticLLC` is a normal set-associative level with representative
tag+data latencies, used by the silicon models (the SG2042 has a 64 MiB
LLC) and by the ablation bench that asks how much of the MIP anomaly the
simplified model explains.

:class:`InterleavedLLC` groups the slices, one per memory channel;
:meth:`repro.mem.hierarchy.Uncore.bind` binds each slice as a cache over
its own DRAM and picks the slice per line.
"""

from __future__ import annotations

from .cache import Cache, CacheConfig

__all__ = ["SimplifiedLLC", "RealisticLLC", "make_llc_slices", "InterleavedLLC"]


class SimplifiedLLC(Cache):
    """FireSim-style SRAM-like LLC: tags are exact, timing is idealised."""

    def __init__(self, size_bytes: int, line_bytes: int = 64,
                 ways: int = 8, latency: int = 4, name: str = "llc") -> None:
        sets = size_bytes // (ways * line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(
                f"LLC size {size_bytes} with {ways} ways / {line_bytes}B lines "
                f"gives a non-power-of-two set count {sets}"
            )
        cfg = CacheConfig(
            sets=sets, ways=ways, line_bytes=line_bytes,
            hit_latency=latency, banks=1, mshrs=16, cycle_time=1,
        )
        super().__init__(cfg, name=name)


class RealisticLLC(Cache):
    """LLC with representative tag/data access latencies and banking."""

    def __init__(self, size_bytes: int, line_bytes: int = 64,
                 ways: int = 16, latency: int = 38, banks: int = 8,
                 name: str = "llc") -> None:
        sets = size_bytes // (ways * line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("LLC geometry must give a power-of-two set count")
        cfg = CacheConfig(
            sets=sets, ways=ways, line_bytes=line_bytes,
            hit_latency=latency, banks=banks, mshrs=32, cycle_time=2,
        )
        super().__init__(cfg, name=name)


class InterleavedLLC:
    """Address-interleaved group of LLC slices, one per memory channel.

    The paper models the MILK-V's 64 MiB LLC "as four 16 MiB LLCs, each
    connected to one of FireSim's four memory channels"; this class
    reproduces that arrangement: line *n* lives in slice ``n % len(slices)``.
    """

    def __init__(self, slices) -> None:
        if not slices:
            raise ValueError("need at least one LLC slice")
        self.slices = list(slices)
        self._line = self.slices[0].cfg.line_bytes

    def __repr__(self) -> str:
        total = sum(s.cfg.size_bytes for s in self.slices) // (1024 * 1024)
        return f"InterleavedLLC({len(self.slices)} slices, {total} MiB total)"


def make_llc_slices(total_bytes: int, nslices: int, simplified: bool = True,
                    latency: int = 4) -> InterleavedLLC:
    """Split *total_bytes* of LLC into *nslices* interleaved slices."""
    per = total_bytes // nslices
    cls = SimplifiedLLC if simplified else RealisticLLC
    kwargs = {"latency": latency} if simplified else {}
    return InterleavedLLC(
        [cls(per, name=f"llc{i}", **kwargs) for i in range(nslices)]
    )
