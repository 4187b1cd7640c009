"""TLB timing models.

Rocket and BOOM tiles have fully-associative 32-entry L1 I/D TLBs; BOOM
adds a 1024-entry direct-mapped L2 TLB (paper Table 5).  A TLB miss costs a
page-table walk, which we charge as a fixed walk latency plus a configurable
number of memory accesses through the data cache hierarchy.

:func:`bind_entry` is the one translation path: a port entry point that
probes the TLB and hands the translated access to its L1.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["TLBConfig", "TLB", "TwoLevelTLB", "TLBStats", "bind_entry"]

PAGE_BYTES = 4096


@dataclass(frozen=True)
class TLBConfig:
    entries: int = 32
    assoc: int | None = None  #: None = fully associative
    page_bytes: int = PAGE_BYTES
    hit_latency: int = 0      #: folded into the cache access on a hit
    walk_latency: int = 20    #: fixed walk cost (cycles) on a miss
    walk_accesses: int = 2    #: page-table loads charged to the hierarchy

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("entries must be positive")
        if self.assoc is not None and not 0 < self.assoc <= self.entries:
            raise ValueError("assoc must be in (0, entries]")


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Single-level TLB; fully associative LRU or set-associative."""

    def __init__(self, cfg: TLBConfig, name: str = "tlb") -> None:
        self.cfg = cfg
        self.name = name
        self.stats = TLBStats()
        self._page_shift = cfg.page_bytes.bit_length() - 1
        assoc = cfg.assoc or cfg.entries
        self._num_sets = cfg.entries // assoc
        self._assoc = assoc
        # per-set LRU-ordered dicts of vpn -> True
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    def __repr__(self) -> str:
        kind = "FA" if self.cfg.assoc in (None, self.cfg.entries) else f"{self._assoc}-way"
        return f"TLB({self.name}: {self.cfg.entries} entries, {kind})"


class TwoLevelTLB:
    """BOOM-style L1 (fully assoc) + L2 (direct-mapped) TLB pair."""

    def __init__(self, l1: TLBConfig, l2: TLBConfig, name: str = "dtlb") -> None:
        self.l1 = TLB(l1, name=f"{name}.l1")
        self.l2 = TLB(l2, name=f"{name}.l2")
        self.l2_hit_latency = 4

    @property
    def stats(self) -> TLBStats:
        return self.l1.stats


def bind_entry(tlb, walk, access, is_store, observe):
    """One port entry point: translate, L1 access, prefetcher observe.

    *tlb* is a :class:`TLB` or a :class:`TwoLevelTLB`.  The first-level
    probe is inlined, so a hit costs no call; a miss that the second
    level (if any) does not catch pays the walk latency plus
    ``walk_accesses`` dependent page-table loads through
    ``walk(addr, time, False)`` (the L2 cache).  The translated access
    goes to ``access(addr, time, is_store)``, then *observe* (a bound
    prefetcher, or None) sees it.  Returns ``(entry, close)`` with
    ``entry(addr, time) -> finish``; set dicts and miss counts are
    updated in place, the access count flushes at ``close``.
    """
    if type(tlb) is TwoLevelTLB:
        l1 = tlb.l1
        l2st = tlb.l2.stats
        l2_shift = tlb.l2._page_shift
        l2_nsets = tlb.l2._num_sets
        l2_assoc = tlb.l2._assoc
        l2_sets = tlb.l2._sets
        l2_hit = tlb.l2_hit_latency
    else:
        l1 = tlb
        l2_sets = None
    st = l1.stats
    shift = l1._page_shift
    nsets = l1._num_sets
    assoc = l1._assoc
    sets = l1._sets
    hit_lat = l1.cfg.hit_latency
    walk_lat = l1.cfg.walk_latency
    walk_n = l1.cfg.walk_accesses
    n_access = 0

    def miss(addr, time, vpn, s):
        st.misses += 1
        if len(s) >= assoc:
            s.popitem(last=False)
        s[vpn] = True
        if l2_sets is not None:
            l2st.accesses += 1
            vpn2 = addr >> l2_shift
            s = l2_sets[vpn2 % l2_nsets]
            if vpn2 in s:
                s.move_to_end(vpn2)
                return time + l2_hit
            l2st.misses += 1
            if len(s) >= l2_assoc:
                s.popitem(last=False)
            s[vpn2] = True
        # radix walk: dependent loads at page-table levels
        t = time + walk_lat
        base = 0x8000_0000 + (vpn % 4096) * 8
        for level in range(walk_n):
            t = walk(base + level * PAGE_BYTES, t, False)
        return t

    def entry(addr, time):
        nonlocal n_access
        n_access += 1
        vpn = addr >> shift
        s = sets[vpn % nsets]
        if vpn in s:
            s.move_to_end(vpn)
            t = time + hit_lat
        else:
            t = miss(addr, time, vpn, s)
        if observe is None:
            return access(addr, t, is_store)
        done = access(addr, t, is_store)
        observe(addr, t)
        return done

    def close():
        st.accesses += n_access

    return entry, close
