"""CPI-stack attribution: explain a tile's cycles resource by resource.

The paper explains simulator-vs-silicon mismatch (Figures 4-7) by tracing
runtime differences to concrete resources — branch handling, each cache
level, DRAM technology, the token-synchronised memory path.  This module
builds the same explanation for any run: every cycle of a tile is
attributed to one of the buckets in :data:`BUCKETS`, and the buckets sum
*exactly* to the cycle total, so two stacks can be compared side by side
and their difference is itself a resource attribution.

The attribution is mechanistic-proportional: exact event counts from the
:class:`~repro.telemetry.registry.Snapshot` delta (misses, mispredicts,
queue waits) are priced with the configuration's latencies, then scaled by
largest-remainder apportionment so the stall buckets fill exactly the
cycles not covered by ideal issue (``base``) or lockstep waiting
(``token_stall``).  Shared-uncore events (L2/LLC/DRAM) are divided between
tiles in proportion to each tile's L1 miss traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .registry import Snapshot

__all__ = ["BUCKETS", "CPIStack", "cpi_stack", "cpi_stacks"]

#: cycle-attribution buckets, in render order; they always sum to ``cycles``
BUCKETS = (
    "base",          # ideal issue-limited cycles (instructions / width)
    "branch",        # mispredict flushes and BTB bubbles
    "l1",            # L1 bank conflicts and MSHR-full stalls
    "l2",            # misses serviced by the shared L2
    "llc",           # misses serviced by the LLC (when one exists)
    "dram",          # misses that reached a DRAM device (incl. queueing)
    "tlb",           # page-table walks from I/D TLB misses
    "store_buffer",  # store-buffer-full (in-order) / LSQ-full (OoO) stalls
    "divider",       # unpipelined divider / structural serialisation
    "token_stall",   # lockstep or MPI waiting for other tiles/ranks
)


@dataclass
class CPIStack:
    """Per-tile cycle attribution; ``sum(buckets.values()) == cycles``."""

    tile: int
    cycles: int
    instructions: int
    buckets: dict[str, int]

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "tile": self.tile,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "cpi": round(self.cpi, 4),
            "buckets": dict(self.buckets),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CPIStack":
        """Inverse of :meth:`to_dict` (``cpi`` is derived, not stored) —
        the JSON round-trip farmed results take across processes."""
        return cls(
            tile=int(d["tile"]),
            cycles=int(d["cycles"]),
            instructions=int(d["instructions"]),
            buckets={k: int(v) for k, v in d["buckets"].items()},
        )

    def render(self, width: int = 40) -> str:
        """Text bar chart, one row per non-empty bucket."""
        rows = [f"tile {self.tile}: {self.cycles:,} cycles, "
                f"{self.instructions:,} instructions, CPI {self.cpi:.2f}"]
        for name in BUCKETS:
            v = self.buckets.get(name, 0)
            if v == 0:
                continue
            frac = v / self.cycles if self.cycles else 0.0
            bar = "#" * max(1, round(frac * width)) if v else ""
            rows.append(f"  {name:<12} {v:>12,}  {frac:6.1%}  {bar}")
        return "\n".join(rows)


def _largest_remainder(weights: dict[str, float], total: int) -> dict[str, int]:
    """Apportion *total* over *weights* so the parts sum exactly."""
    wsum = sum(weights.values())
    if wsum <= 0 or total <= 0:
        return {k: 0 for k in weights}
    exact = {k: total * w / wsum for k, w in weights.items()}
    out = {k: math.floor(v) for k, v in exact.items()}
    leftover = total - sum(out.values())
    # hand out the remainder by descending fractional part (name-stable ties)
    order = sorted(weights, key=lambda k: (out[k] - exact[k], k))
    for k in order[:leftover]:
        out[k] += 1
    return out


def _tile_record(delta: Snapshot, tile: int) -> dict[str, Any]:
    for rec in delta["tiles"]:
        if rec["tile"] == tile:
            return rec
    raise KeyError(f"no tile {tile} in snapshot")


def _l1_misses(rec: dict[str, Any]) -> int:
    return rec["l1d"]["misses"] + rec["l1i"]["misses"]


def _dram_unloaded_cycles(cfg) -> float:
    """Unloaded DRAM round trip in core cycles (activate + CAS + control)."""
    t = cfg.hierarchy.dram.timings
    return (t.tRCD + t.tCAS + t.tCTRL) * cfg.core_ghz


def cpi_stack(system, result, delta: Snapshot, tile: int = 0,
              makespan: int | None = None, comm_cycles: int = 0) -> CPIStack:
    """Attribute one tile's cycles to the :data:`BUCKETS`.

    Parameters
    ----------
    system:
        The :class:`repro.soc.System` the run executed on (for latencies).
    result:
        The tile's :class:`repro.core.base.CoreResult` (or any object with
        ``cycles``, ``instructions``, and a ``stalls`` dict).
    delta:
        Measure-window counter delta from :class:`StatsRegistry`.
    tile:
        Which tile to attribute.
    makespan:
        For lockstep/MPI runs: the slowest lane's cycle count.  The gap
        ``makespan - result.cycles`` lands in ``token_stall``.
    comm_cycles:
        Cycles this lane spent blocked in communication (MPI runs); they
        move from the compute buckets into ``token_stall``.
    """
    cfg = system.cfg
    cycles = int(result.cycles)
    instructions = int(result.instructions)
    stalls = dict(getattr(result, "stalls", {}) or {})

    token = max(0, int(comm_cycles))
    if makespan is not None and makespan > cycles:
        token += makespan - cycles
    own = max(0, cycles - max(0, int(comm_cycles)))

    if cfg.core_type == "inorder":
        icfg = cfg.inorder
        width = icfg.issue_width
        flush_pen, bubble_pen = icfg.flush_penalty, icfg.bubble_penalty
        sb_stall = stalls.get("mem", 0)
        div_stall = stalls.get("structural", 0)
    else:
        ocfg = cfg.ooo
        width = ocfg.effective_commit_width
        flush_pen, bubble_pen = ocfg.frontend_depth, 3
        sb_stall = stalls.get("lsq", 0)
        div_stall = 0

    base = min(own, math.ceil(instructions / width)) if instructions else 0
    residual = own - base

    td = _tile_record(delta, tile)
    ud = delta["uncore"]
    all_l1 = sum(_l1_misses(rec) for rec in delta["tiles"])
    mine = _l1_misses(td)
    share = mine / all_l1 if all_l1 else 0.0

    h = cfg.hierarchy
    l2_hits = max(0, ud["l2"]["accesses"] - ud["l2"]["misses"])
    llc = ud.get("llc")
    llc_hits = (sum(max(0, s["accesses"] - s["misses"]) for s in llc)
                if llc else 0)
    llc_latency = h.llc_latency if h.llc_simplified else 38
    dram_acc = sum(d["reads"] + d["writes"] for d in ud["dram"])
    dram_wait = sum(d["queue_wait_cycles"] + d["refresh_stall_cycles"]
                    for d in ud["dram"])

    raw: dict[str, float] = {
        "branch": (td["branch"]["mispredicts"] * flush_pen
                   + td["branch"]["btb_misses"] * bubble_pen),
        "l1": (td["l1d"]["bank_conflict_cycles"] + td["l1d"]["mshr_stall_cycles"]
               + td["l1i"]["bank_conflict_cycles"] + td["l1i"]["mshr_stall_cycles"]),
        "l2": share * l2_hits * h.l2.hit_latency,
        "llc": share * llc_hits * llc_latency,
        "dram": share * (dram_acc * _dram_unloaded_cycles(cfg) + dram_wait),
        "tlb": ((td["itlb"]["misses"] + td["dtlb"]["misses"])
                * h.dtlb.walk_latency),
        "store_buffer": sb_stall,
        "divider": div_stall,
    }

    buckets = _largest_remainder(raw, residual)
    if sum(buckets.values()) < residual:
        # no stall evidence at all: the leftover is issue-limited time
        base += residual - sum(buckets.values())
    buckets["base"] = base
    buckets["token_stall"] = token
    return CPIStack(
        tile=tile,
        cycles=own + token,
        instructions=instructions,
        buckets={k: buckets.get(k, 0) for k in BUCKETS},
    )


def cpi_stacks(system, results, delta: Snapshot,
               comm_cycles: list[int] | None = None) -> list[CPIStack]:
    """Stacks for a multi-tile run; ``results[i]`` belongs to tile *i*.

    The makespan (slowest lane) is derived from the results, so every
    stack sums to the same total and faster lanes show ``token_stall``.
    """
    makespan = max((int(r.cycles) for r in results), default=0)
    comm = comm_cycles or [0] * len(results)
    return [
        cpi_stack(system, r, delta, tile=i, makespan=makespan,
                  comm_cycles=comm[i])
        for i, r in enumerate(results)
    ]
