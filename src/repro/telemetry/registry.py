"""Unified stats collection over a :class:`repro.soc.System`.

Every timing component in the simulator keeps its own ``*Stats`` dataclass
(:class:`repro.mem.cache.CacheStats`, :class:`repro.mem.dram.DRAMStats`,
:class:`repro.core.branch.BranchStats`, ...).  The :class:`StatsRegistry`
walks a system — tiles (branch unit, L1s, TLBs, prefetcher) and the shared
uncore (L2, bus, LLC slices, coherence directory, DRAM channels), plus the
lockstep scheduler when one has run — and captures every counter into one
nested, serialisable :class:`Snapshot`.

Snapshots subtract (``after - before``), which is how warmup-vs-measure
windows are expressed: warm the system, take a baseline, run the measured
pass, and keep only the delta.  The paper's whole §4 tuning loop is driven
by exactly such counter deltas compared between FireSim and silicon.
"""

from __future__ import annotations

import dataclasses
import io
import json
from typing import Any, Iterator

__all__ = ["SCHEMA_VERSION", "Snapshot", "StatsRegistry"]

#: bump when the snapshot tree layout changes shape
SCHEMA_VERSION = 1


def _dump(stats: Any) -> dict[str, int | float]:
    """Numeric fields of one ``*Stats`` dataclass (properties excluded,
    so deltas never subtract ratios)."""
    out: dict[str, int | float] = {}
    for f in dataclasses.fields(stats):
        v = getattr(stats, f.name)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            continue
        out[f.name] = v
    return out


#: structural identity fields that pass through a delta unchanged
_IDENTITY_KEYS = frozenset({"schema", "tile", "ncores"})


def _diff(after: Any, before: Any) -> Any:
    """Recursive numeric difference of two snapshot trees."""
    if isinstance(after, dict):
        if not isinstance(before, dict):
            return after
        return {k: (v if k in _IDENTITY_KEYS else _diff(v, before.get(k)))
                for k, v in after.items()}
    if isinstance(after, list):
        if not isinstance(before, list) or len(after) != len(before):
            return after
        return [_diff(a, b) for a, b in zip(after, before)]
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return after
    if isinstance(before, (int, float)) and not isinstance(before, bool):
        return after - before
    return after


class Snapshot:
    """One nested counter record; supports delta, flatten, JSON, and CSV."""

    __slots__ = ("data",)

    def __init__(self, data: dict[str, Any]) -> None:
        self.data = data

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Snapshot) and self.data == other.data

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        """Counter-wise delta (``after - before``); identity fields such
        as names pass through from the left operand."""
        return Snapshot(_diff(self.data, other.data))

    # -- flattening / export ------------------------------------------------

    def _walk(self, node: Any, prefix: str) -> Iterator[tuple[str, Any]]:
        if isinstance(node, dict):
            for k, v in node.items():
                yield from self._walk(v, f"{prefix}.{k}" if prefix else str(k))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from self._walk(v, f"{prefix}.{i}")
        else:
            yield prefix, node

    def flat(self) -> dict[str, Any]:
        """Dotted-path view: ``{"tiles.0.l1d.misses": 12, ...}``."""
        return dict(self._walk(self.data, ""))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        return cls(json.loads(text))

    def to_csv(self) -> str:
        """Two-column ``counter,value`` CSV of the flattened tree."""
        buf = io.StringIO()
        buf.write("counter,value\n")
        for key, value in self.flat().items():
            buf.write(f"{key},{value}\n")
        return buf.getvalue()

    def __repr__(self) -> str:
        return f"Snapshot({self.data.get('config', '?')}, {len(self.flat())} counters)"


class StatsRegistry:
    """Walk a :class:`repro.soc.System` and snapshot every stats object.

    The registry holds no state of its own beyond the system reference:
    every call to :meth:`snapshot` reads the live counters, and
    :meth:`delta` subtracts a previously taken baseline, which is the
    warmup-vs-measure idiom::

        reg = StatsRegistry(system)
        system.warm(trace)            # train caches and predictors
        base = reg.snapshot()
        result = system.run(trace)
        measured = reg.delta(base)    # counters for the hot pass only
    """

    def __init__(self, system) -> None:
        self.system = system
        # the process-wide accel counters (repro.accel.stats) outlive any
        # one system, so baseline them here: snapshots report the accel
        # activity observed during *this* registry's lifetime, keeping a
        # fresh system's counters at zero
        from ..accel.stats import global_stats
        self._accel_base: dict[str, int | float] = _dump(global_stats())

    def snapshot(self) -> Snapshot:
        sys_ = self.system
        tiles = []
        for tile in sys_.tiles:
            port = tile.port
            rec: dict[str, Any] = {
                "tile": tile.tile_id,
                "branch": _dump(tile.core.bru.stats),
                "l1i": _dump(port.l1i.stats),
                "l1d": _dump(port.l1d.stats),
                "itlb": _dump(port.itlb.stats),
                "dtlb": _dump(port.dtlb.stats),
                "prefetch": (_dump(port.prefetcher.stats)
                             if port.prefetcher is not None else None),
            }
            rec["accel"] = _dump(tile.core.accel_stats)
            tiles.append(rec)

        uncore = sys_.uncore
        u: dict[str, Any] = {
            "l2": _dump(uncore.l2.stats),
            "bus": _dump(uncore.bus.stats),
            "llc": ([_dump(s.stats) for s in uncore.llc.slices]
                    if uncore.llc is not None else None),
            "coherence": _dump(uncore.directory.stats),
            "dram": [_dump(d.stats) for d in uncore.drams],
        }

        data: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "config": sys_.cfg.name,
            "ncores": sys_.cfg.ncores,
            "tiles": tiles,
            "uncore": u,
            "scheduler": (_dump(sys_.last_scheduler.stats)
                          if getattr(sys_, "last_scheduler", None) is not None
                          else None),
        }
        # only present when a run was watched — keeps unwatched snapshots
        # byte-compatible with older ones
        watchdog = getattr(sys_, "last_watchdog", None)
        if watchdog is not None:
            data["watchdog"] = _dump(watchdog.stats)
        # acceleration counters.  The memo keys are process-wide,
        # reported relative to this registry's construction-time
        # baseline; the engine uop count is summed from the tiles
        # (per-run state, carried through checkpoints) so a resumed
        # run's snapshot stays bit-identical to an uninterrupted one
        from ..accel.stats import global_stats
        now = _dump(global_stats())
        acc = {k: v - self._accel_base.get(k, 0) for k, v in now.items()}
        acc["engine_uops"] = sum(t["accel"]["engine_uops"] for t in tiles)
        data["accel"] = acc
        return Snapshot(data)

    def delta(self, before: Snapshot) -> Snapshot:
        """Current counters minus *before* (the measure window)."""
        return self.snapshot() - before
