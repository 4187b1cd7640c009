"""The Instrument orchestrator: one stream per instrumented system.

An :class:`Instrument` bundles what to capture (:class:`InstrumentSpec`)
with where it goes (an :class:`~repro.instrument.InstrumentStream`) and
binds to one :class:`repro.soc.System` via ``system.attach_instrument``.
The execution loop then feeds it observed chunks — pure read-only
observation at chunk boundaries, never inside the per-instruction hot
path — so an attached instrument changes nothing about simulated
results: same cycles, same counter values, same chunking.  The
bit-identity tier in :mod:`repro.check` enforces exactly that.

Checkpoint contract: ``System.save_checkpoint`` folds
:meth:`Instrument.state` into the checkpoint extras; on
``System.restore`` an attached instrument is re-armed from that state
(window cursors, sampler phase, per-tile instruction indices) and its
stream opens a new *resumed* segment.  Sealed donor streams plus a
resumed segment concatenate into one coherent record of the logical
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .sampler import CounterSampler
from .stream import STREAM_SCHEMA, InstrumentStream
from .tracer import Tracer
from .triggers import TraceTrigger

__all__ = ["InstrumentSpec", "Instrument"]


@dataclass(frozen=True)
class InstrumentSpec:
    """What an instrumented run captures.

    Everything defaults off-ish: no triggers means no trace windows, no
    interval means no counter samples; ``markers=True`` alone only costs
    one vectorised scan per chunk and emits records only when the
    workload actually executes magic stores.
    """

    triggers: tuple[TraceTrigger, ...] = ()
    counter_interval: int | None = None     #: cycles between counter samples
    markers: bool = True                    #: decode magic-store markers

    def __post_init__(self) -> None:
        object.__setattr__(self, "triggers", tuple(self.triggers))
        if self.counter_interval is not None and self.counter_interval <= 0:
            raise ValueError("counter_interval must be positive cycles")

    def to_dict(self) -> dict[str, Any]:
        return {"triggers": [t.to_dict() for t in self.triggers],
                "counter_interval": self.counter_interval,
                "markers": self.markers}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "InstrumentSpec":
        return cls(
            triggers=tuple(TraceTrigger.from_dict(t)
                           for t in d.get("triggers", ())),
            counter_interval=d.get("counter_interval"),
            markers=bool(d.get("markers", True)),
        )


class Instrument:
    """Streaming observer for one system: windows + samples + markers."""

    def __init__(self, spec: InstrumentSpec | None = None,
                 path: str | None = None,
                 stream: InstrumentStream | None = None) -> None:
        self.spec = spec if spec is not None else InstrumentSpec()
        self.stream = stream if stream is not None else InstrumentStream(path)
        self.tracer = Tracer(self.spec.triggers, self.stream,
                             markers=self.spec.markers)
        self.sampler = (CounterSampler(self.spec.counter_interval, self.stream)
                        if self.spec.counter_interval is not None else None)
        self.system = None
        #: per-tile global instruction index (trace records are numbered
        #: across chunks, surviving checkpoint/restore)
        self._inst: dict[int, int] = {}
        self._max_cycle = 0

    # -- lifecycle ------------------------------------------------------------

    def attach(self, system, resumed: bool = False) -> None:
        """Bind to *system* and open a stream segment (meta record)."""
        self.system = system
        if self.sampler is not None:
            self.sampler.attach(system)
        self.stream.write({
            "t": "meta", "schema": STREAM_SCHEMA, "config": system.cfg.name,
            "ncores": system.cfg.ncores, "resumed": bool(resumed),
            "spec": self.spec.to_dict(),
        })

    def seal(self, reason: str = "done") -> None:
        """Close open windows, take the terminal sample, seal the stream.

        A ``"checkpoint"`` seal leaves open windows and the sampler
        untouched: the run continues in a resumed segment, which will
        emit the close event and cover the remaining interval — closing
        here would double-count both across the seam.
        """
        if self.stream.sealed:
            return
        if reason != "checkpoint":
            self.tracer.close_open_windows(reason="eof")
            if self.sampler is not None:
                self.sampler.finalize(self._max_cycle,
                                      sum(self._inst.values()))
        self.stream.seal(reason=reason)

    # -- the per-chunk observation hook ---------------------------------------

    def observe(self, tile: int, trace, start: int, stop: int, t0: int,
                t1: int) -> None:
        """Observe chunk ``trace[start:stop]`` run on *tile* in (t0, t1]."""
        inst0 = self._inst.get(tile, 0)
        self.tracer.observe(tile, trace, start, stop, t0, t1, inst0)
        self._inst[tile] = inst0 + stop - start
        if t1 > self._max_cycle:
            self._max_cycle = t1
        if self.sampler is not None:
            self.sampler.observe(self._max_cycle, sum(self._inst.values()))

    # -- checkpoint support ---------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Cursor state folded into checkpoint extras by the system."""
        d: dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "windows": self.tracer.state(),
            "inst": {str(k): v for k, v in self._inst.items()},
            "max_cycle": self._max_cycle,
        }
        if self.sampler is not None:
            d["sampler"] = self.sampler.state()
        return d

    def load_state(self, d: dict[str, Any]) -> None:
        """Re-arm from checkpointed cursor state (the restore path)."""
        self.tracer.load_state(d["windows"])
        self._inst = {int(k): int(v) for k, v in d.get("inst", {}).items()}
        self._max_cycle = int(d.get("max_cycle", 0))
        if self.sampler is not None and "sampler" in d:
            self.sampler.load_state(d["sampler"])

    def __repr__(self) -> str:
        nw = len(self.tracer.windows)
        return (f"Instrument({nw} windows, "
                f"interval={self.spec.counter_interval}, {self.stream!r})")
