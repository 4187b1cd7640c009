"""Hardware prefetcher models.

The commercial cores the paper measures (SpacemiT K1, T-Head C920 in the
SG2042) ship L1/L2 hardware stride prefetchers; the Rocket and BOOM tiles
FireSim instantiates have none.  That asymmetry is one of the mechanistic
reasons the silicon outruns the simulation on streaming, bandwidth-bound
kernels (DP*, MM_st, NPB IS/MG) while pointer-chasing kernels (MD, MM) see
no benefit — so the silicon models attach a :class:`StridePrefetcher` and
the FireSim models do not.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PrefetcherConfig", "StridePrefetcher", "PrefetchStats"]


@dataclass(frozen=True)
class PrefetcherConfig:
    """Reference-prediction-table stride prefetcher parameters."""

    table_entries: int = 16
    degree: int = 2        #: lines fetched ahead per trigger
    min_confidence: int = 2

    def __post_init__(self) -> None:
        if self.table_entries <= 0 or self.degree <= 0:
            raise ValueError("table_entries and degree must be positive")


@dataclass
class PrefetchStats:
    triggers: int = 0
    issued: int = 0


class StridePrefetcher:
    """Classic reference-prediction-table stride prefetcher.

    Streams are tracked per 4 KiB region.  On a confident stride match
    the prefetcher fills the next ``degree`` lines that are not resident
    through the cache's bound access: the fill occupies the next level
    (so prefetch traffic consumes real bandwidth) but the requesting
    core does not wait.
    """

    def __init__(self, cfg: PrefetcherConfig, line_bytes: int) -> None:
        self.cfg = cfg
        self.stats = PrefetchStats()
        # region -> (last_line, stride, confidence); insertion-ordered LRU
        self._table: dict[int, tuple[int, int, int]] = {}
        self._line = line_bytes

    def bind(self, contains, access):
        """Bind the observe path over this prefetcher's stream table.

        Returns ``observe(addr, time)``, which feeds one demand access
        and may issue prefetches: ``contains(addr)`` probes the cache,
        ``access(addr, time, False)`` fills it.  *access* is the cache's
        bound access, so prefetch traffic flows through the same walk as
        demand traffic.  Stats are updated in place; nothing to close.
        """
        cfg = self.cfg
        st = self.stats
        table = self._table
        line_b = self._line
        degree = cfg.degree
        min_conf = cfg.min_confidence
        max_entries = cfg.table_entries

        def observe(addr, time):
            line = addr // line_b
            region = addr >> 12
            entry = table.pop(region, None)
            if entry is None:
                table[region] = (line, 0, 0)
            else:
                last, stride, conf = entry
                new_stride = line - last
                if new_stride == 0:
                    table[region] = (line, stride, conf)
                elif new_stride == stride:
                    conf = conf + 1 if conf < 4 else 4
                    table[region] = (line, stride, conf)
                    if conf >= min_conf:
                        st.triggers += 1
                        for k in range(1, degree + 1):
                            target = (line + stride * k) * line_b
                            if not contains(target):
                                st.issued += 1
                                access(target, time, False)
                else:
                    table[region] = (line, new_stride, 1)
            if len(table) > max_entries:
                # evict the oldest stream (dict preserves insertion order)
                table.pop(next(iter(table)))

        return observe
