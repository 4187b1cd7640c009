"""Window decoding: turn raw micro-op chunks into trace-stream records.

The tracer sees the run as a sequence of observed chunks — ``(tile,
trace[start:stop], start cycle, end cycle)`` — exactly the granularity
the execution loop already advances in (``System.run`` calls and
lockstep lane chunks).  Per chunk it advances every window's state
machine (:mod:`repro.instrument.triggers`) and decodes only the
instructions inside open windows, so the cost of an armed-but-closed
trigger is one vectorised scan of the chunk's ``pc`` view and the cost
of an open window is bounded by its record budget.

Cycle stamps are interpolated linearly across a chunk (instruction
``i`` of ``n`` spanning ``(t0, t1]`` stamps ``t0 + (t1-t0)*(i+1)//n``):
exact at chunk boundaries, monotonic within.  Smaller lockstep chunks
buy finer timestamps — the same resolution/overhead dial FireSim turns
with its token quantum.
"""

from __future__ import annotations

import numpy as np

from ..isa.opcodes import OpClass
from .markers import decode_marker, is_marker_addr
from .stream import InstrumentStream
from .triggers import DONE, OPEN, WindowState

__all__ = ["Tracer", "decode_record"]

_STORE = int(OpClass.STORE)
_MEM = frozenset(int(o) for o in (OpClass.LOAD, OpClass.STORE, OpClass.AMO,
                                  OpClass.VLOAD, OpClass.VSTORE))
_CTRL = frozenset(int(o) for o in (OpClass.BRANCH, OpClass.JUMP,
                                   OpClass.CALL, OpClass.RET))


def _cycles(t0: int, t1: int, n: int) -> np.ndarray:
    """Interpolated cycle stamps for *n* instructions spanning (t0, t1]."""
    return t0 + ((t1 - t0) * np.arange(1, n + 1, dtype=np.int64)) // n


def decode_record(trace, i: int, tile: int, cycle: int, window: str,
                  index: int) -> dict:
    """One trace-stream record for instruction *i* of *trace*."""
    op = int(trace.op[i])
    rec = {
        "t": "trace", "window": window, "tile": tile, "i": index,
        "cycle": int(cycle), "pc": f"{int(trace.pc[i]):#x}",
        "op": OpClass(op).name,
    }
    dst, s1, s2 = int(trace.dst[i]), int(trace.src1[i]), int(trace.src2[i])
    if dst >= 0:
        rec["dst"] = dst
    if s1 >= 0:
        rec["src1"] = s1
    if s2 >= 0:
        rec["src2"] = s2
    if op in _MEM:
        rec["addr"] = f"{int(trace.addr[i]):#x}"
        rec["size"] = int(trace.size[i])
    if op in _CTRL:
        rec["taken"] = bool(trace.taken[i])
        rec["target"] = f"{int(trace.target[i]):#x}"
    return rec


class Tracer:
    """Advance every window over one observed chunk; emit records."""

    def __init__(self, triggers, stream: InstrumentStream,
                 markers: bool = True) -> None:
        self.windows = [WindowState(t) for t in triggers]
        self.stream = stream
        self.markers = markers

    # -- checkpoint support ---------------------------------------------------

    def state(self) -> list[dict]:
        return [w.state_dict() for w in self.windows]

    def load_state(self, states: list[dict]) -> None:
        if len(states) != len(self.windows):
            raise ValueError(
                f"instrument state has {len(states)} windows, tracer has "
                f"{len(self.windows)} (trigger list changed?)")
        for w, s in zip(self.windows, states):
            w.load_state(s)

    # -- the per-chunk hot path ----------------------------------------------

    def observe(self, tile: int, trace, start: int, stop: int, t0: int,
                t1: int, inst0: int) -> int:
        """Process chunk ``trace[start:stop]``; returns records written."""
        pc = trace.pc[start:stop]
        n = len(pc)
        if n == 0:
            return 0
        written = 0
        cyc = None  # computed lazily: most chunks trigger nothing
        for ws in self.windows:
            trig = ws.trigger
            if ws.done or (trig.tile is not None and trig.tile != tile):
                continue

            start_i = 0
            if ws.armed:
                if trig.start_pc is not None:
                    hits = np.flatnonzero(pc == np.uint64(trig.start_pc))
                    if not len(hits):
                        continue
                    start_i = int(hits[0])
                elif trig.start_cycle is not None:
                    if t1 < trig.start_cycle:
                        continue
                    if cyc is None:
                        cyc = _cycles(t0, t1, n)
                    start_i = int(np.searchsorted(cyc, trig.start_cycle))
                    if start_i >= n:
                        continue
                if cyc is None:
                    cyc = _cycles(t0, t1, n)
                ws.state = OPEN
                ws.opened_cycle = int(cyc[start_i])
                self.stream.write({
                    "t": "window", "event": "open", "window": trig.name,
                    "tile": tile, "cycle": ws.opened_cycle,
                    "pc": f"{int(pc[start_i]):#x}", "i": inst0 + start_i,
                })
                written += 1

            # OPEN: find the inclusive end of what this chunk contributes
            if cyc is None:
                cyc = _cycles(t0, t1, n)
            end_i, reason = n - 1, None
            if trig.stop_pc is not None:
                hits = np.flatnonzero(
                    pc[start_i:] == np.uint64(trig.stop_pc))
                if len(hits):
                    end_i, reason = start_i + int(hits[0]), "pc"
            if trig.stop_cycle is not None and t1 >= trig.stop_cycle:
                sc = int(np.searchsorted(cyc, trig.stop_cycle))
                sc = min(sc, n - 1)
                if sc < end_i or reason is None:
                    end_i, reason = min(end_i, sc), "cycle"
            budget = ws.budget()
            if end_i - start_i + 1 > budget:
                end_i = start_i + budget - 1
                reason = ("length" if trig.length is not None
                          and ws.emitted + budget >= trig.length
                          else "max-records")

            for i in range(start_i, end_i + 1):
                self.stream.write(decode_record(
                    trace, start + i, tile, int(cyc[i]), trig.name, inst0 + i))
            ws.emitted += max(0, end_i - start_i + 1)
            written += max(0, end_i - start_i + 1)

            if reason is not None:
                ws.state = DONE
                ws.closed_reason = reason
                close_cycle = int(cyc[end_i]) if end_i >= start_i else (
                    ws.opened_cycle if ws.opened_cycle is not None else t0)
                self.stream.write({
                    "t": "window", "event": "close", "window": trig.name,
                    "tile": tile, "cycle": close_cycle, "reason": reason,
                    "records": ws.emitted,
                })
                written += 1

        if self.markers:
            written += self._scan_markers(tile, trace, start, stop, t0, t1,
                                          inst0, cyc)
        return written

    def _scan_markers(self, tile: int, trace, start: int, stop: int, t0: int,
                      t1: int, inst0: int, cyc: np.ndarray | None) -> int:
        # one vectorised scan per chunk; no stores in the magic region
        # means no per-record work at all
        addrs = trace.addr[start:stop]
        magic = (trace.op[start:stop] == _STORE) & (
            (addrs >> np.uint64(48)) == np.uint64(0xF17E))
        hits = np.flatnonzero(magic)
        if not len(hits):
            return 0
        if cyc is None:
            cyc = _cycles(t0, t1, stop - start)
        for i in hits:
            i = int(i)
            addr = int(addrs[i])
            if not is_marker_addr(addr):  # pragma: no cover - mask is exact
                continue
            mid, value = decode_marker(addr)
            self.stream.write({
                "t": "marker", "tile": tile, "cycle": int(cyc[i]),
                "i": inst0 + i, "id": mid, "value": value,
                "pc": f"{int(trace.pc[start + i]):#x}",
            })
        return len(hits)

    def close_open_windows(self, reason: str = "eof") -> None:
        """Force-close windows still open (end of run / seal time)."""
        for ws in self.windows:
            if ws.open:
                ws.state = DONE
                ws.closed_reason = reason
                self.stream.write({
                    "t": "window", "event": "close",
                    "window": ws.trigger.name, "reason": reason,
                    "records": ws.emitted,
                })
