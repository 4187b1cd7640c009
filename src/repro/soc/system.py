"""Multi-tile system assembly and execution.

A :class:`System` instantiates ``ncores`` tiles (core + private L1s/TLBs)
over one shared :class:`repro.mem.Uncore` and runs instruction traces on
them — serially per tile, or in FireSim-style token lockstep across tiles
(:meth:`System.run_parallel`), which is how the multi-rank MPI experiments
execute.  A lane runs its trace in windows ``core.run(trace,
start=offset, stop=offset + chunk)``, never in sliced traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.base import CoreResult
from ..core.branch import (
    BTB,
    BimodalBHT,
    BranchUnit,
    GShare,
    ReturnAddressStack,
    TAGE,
)
from ..core.inorder import InOrderCore
from ..core.ooo import OoOCore
from ..isa.trace import Trace
from ..mem.hierarchy import TilePort, Uncore
from .config import BranchPredictorConfig, SoCConfig
from .tokens import LockstepScheduler

__all__ = ["Tile", "System", "ParallelRun", "build_branch_unit"]


def build_branch_unit(cfg: BranchPredictorConfig) -> BranchUnit:
    """Construct the front-end predictor stack a config asks for; the
    unit's lineage starts at *cfg* (see :class:`BranchUnit`)."""
    if cfg.kind == "rocket":
        direction = BimodalBHT(cfg.bht_entries)
    elif cfg.kind == "gshare":
        direction = GShare(cfg.bht_entries)
    else:  # boom
        direction = TAGE(num_tables=cfg.tage_tables, table_bits=cfg.tage_table_bits,
                         max_hist=128)
    return BranchUnit(
        direction,
        BTB(cfg.btb_entries, assoc=2 if cfg.btb_entries < 64 else 4),
        ReturnAddressStack(cfg.ras_depth),
        config=cfg,
    )


@dataclass
class Tile:
    """One tile: a core model bound to its private memory port."""

    tile_id: int
    core: InOrderCore | OoOCore
    port: TilePort


@dataclass(eq=False)
class _TileLane:
    """Adapts a (tile, trace) pair to the LockstepScheduler Lane protocol."""

    tile: Tile
    trace: Trace
    chunk: int = 2048
    offset: int = 0
    result: CoreResult | None = None
    instrument: Any = None

    def local_time(self) -> int:
        return self.tile.core.local_time

    def advance(self, until: int) -> bool:
        core = self.tile.core
        n = len(self.trace)
        while self.offset < n and core.local_time < until:
            start = self.offset
            stop = min(start + self.chunk, n)
            t0 = core.local_time
            r = core.run(self.trace, start=start, stop=stop)
            self.result = r if self.result is None else self.result + r
            self.offset = stop
            if self.instrument is not None:
                self.instrument.observe(self.tile.tile_id, self.trace, start,
                                        stop, t0, core.local_time)
        return self.offset < n


class ParallelRun:
    """A stepwise handle on an in-flight lockstep run.

    ``System.start_parallel`` returns one; :meth:`step` advances whole
    quanta, so callers can checkpoint (:meth:`checkpoint`), watch, or
    abandon the run between quanta.  ``System.restore`` rebuilds one
    mid-flight from a :class:`~repro.reliability.SimCheckpoint`.
    """

    def __init__(self, system: "System", traces: list[Trace],
                 quantum: int = 4096, chunk: int = 2048,
                 watchdog=None, fault_plan=None,
                 _lanes: list[_TileLane] | None = None) -> None:
        if len(traces) > len(system.tiles):
            raise ValueError(
                f"{len(traces)} traces for {len(system.tiles)} tiles")
        self.system = system
        self.fault_plan = fault_plan
        self.lanes = _lanes if _lanes is not None else [
            _TileLane(system.tiles[i], t, chunk=chunk,
                      instrument=system.instrument)
            for i, t in enumerate(traces)
        ]
        self.scheduler = LockstepScheduler(quantum=quantum, watchdog=watchdog)
        self.scheduler.bind(list(self.lanes))
        if watchdog is not None and watchdog.system is None:
            watchdog.system = system
        system.last_scheduler = self.scheduler
        system.last_watchdog = watchdog

    @property
    def done(self) -> bool:
        return self.scheduler.done

    @property
    def quanta(self) -> int:
        """Quanta completed so far (the checkpointable positions)."""
        return self.scheduler.stats.quanta

    def _inject_due_faults(self) -> None:
        plan = self.fault_plan
        if plan is None:
            return
        from ..reliability import faults as _f
        for fault in plan.token_faults(self.quanta):
            _f.apply_token_fault(fault, self.scheduler)
        rng = plan.rng()
        for fault in plan.line_faults(self.quanta):
            _f.corrupt_cache_line(
                self.system, tile=int(fault.param("tile", 0)),
                cache=str(fault.param("cache", "l1d")), rng=rng)

    def step(self, quanta: int = 1) -> bool:
        """Advance up to *quanta* scheduler quanta; True while unfinished."""
        for _ in range(quanta):
            self._inject_due_faults()
            if not self.scheduler.step():
                return False
        return not self.done

    def run(self) -> list[CoreResult]:
        """Run to completion and return per-lane results."""
        while self.step():
            pass
        return self.results()

    def results(self) -> list[CoreResult]:
        """Per-lane results, aligned to the input traces."""
        out = []
        for lane in self.lanes:
            assert lane.result is not None or len(lane.trace) == 0
            out.append(lane.result or CoreResult(cycles=0, instructions=0))
        return out

    def checkpoint(self, extras: dict | None = None):
        """Snapshot run + system state into a ``SimCheckpoint``."""
        return self.system.save_checkpoint(run=self, extras=extras)


class System:
    """``ncores`` tiles over a shared uncore, built from a :class:`SoCConfig`."""

    def __init__(self, cfg: SoCConfig) -> None:
        self.cfg = cfg
        self.uncore = Uncore(cfg.hierarchy)
        #: scheduler of the most recent run_parallel (for telemetry)
        self.last_scheduler: LockstepScheduler | None = None
        #: watchdog of the most recent run_parallel, if any (for telemetry)
        self.last_watchdog = None
        #: attached streaming instrument, if any (see repro.instrument)
        self.instrument = None
        self.tiles: list[Tile] = []
        for i in range(cfg.ncores):
            port = TilePort(self.uncore, tile_id=i, prefetcher=cfg.prefetcher)
            bru = build_branch_unit(cfg.branch)
            if cfg.core_type == "inorder":
                assert cfg.inorder is not None
                core: InOrderCore | OoOCore = InOrderCore(cfg.inorder, port,
                                                          bru)
            else:
                assert cfg.ooo is not None
                core = OoOCore(cfg.ooo, port, bru)
            self.tiles.append(Tile(i, core, port))

    # -- instrumentation ------------------------------------------------------

    def attach_instrument(self, instrument, resumed: bool = False) -> None:
        """Attach a streaming :class:`repro.instrument.Instrument`.

        Observation is read-only at chunk boundaries: results, counters,
        and chunking are bit-identical with or without an instrument
        (enforced by the ``instrument`` tier in :mod:`repro.check`).
        Attach before starting a lockstep run — lanes bind the
        instrument at construction time.
        """
        self.instrument = instrument
        instrument.attach(self, resumed=resumed)

    def detach_instrument(self, reason: str = "done") -> None:
        """Seal the attached instrument's stream and drop it."""
        if self.instrument is not None:
            self.instrument.seal(reason=reason)
            self.instrument = None

    # -- execution ------------------------------------------------------------

    def run(self, trace: Trace, tile: int = 0) -> CoreResult:
        """Run a trace to completion on one tile."""
        core = self.tiles[tile].core
        t0 = core.local_time
        result = core.run(trace)
        if self.instrument is not None:
            # serial runs are observed whole, as one chunk; lockstep
            # lanes observe each chunk, the finer-grained path
            self.instrument.observe(tile, trace, 0, len(trace), t0,
                                    core.local_time)
        return result

    def run_parallel(self, traces: list[Trace], quantum: int = 4096,
                     chunk: int = 2048, watchdog=None,
                     fault_plan=None) -> list[CoreResult]:
        """Run one trace per tile under token lockstep.

        ``traces[i]`` runs on tile *i*; fewer traces than tiles leaves the
        remaining tiles idle.  Returns per-tile results (aligned to input).
        An optional :class:`~repro.reliability.LockstepWatchdog` raises
        ``SimulationHang`` on stalled progress, and an optional
        :class:`~repro.reliability.FaultPlan` injects token/cache faults
        at their scheduled quanta.
        """
        return self.start_parallel(traces, quantum=quantum, chunk=chunk,
                                   watchdog=watchdog,
                                   fault_plan=fault_plan).run()

    def start_parallel(self, traces: list[Trace], quantum: int = 4096,
                       chunk: int = 2048, watchdog=None,
                       fault_plan=None) -> ParallelRun:
        """Begin a lockstep run without advancing it (stepwise handle)."""
        return ParallelRun(self, traces, quantum=quantum, chunk=chunk,
                           watchdog=watchdog, fault_plan=fault_plan)

    # -- checkpoint / restore -------------------------------------------------

    def save_checkpoint(self, run: ParallelRun | None = None,
                        extras: dict | None = None):
        """Capture a :class:`~repro.reliability.SimCheckpoint`.

        With *run*, the checkpoint carries lane progress and scheduler
        position so ``System.restore`` resumes mid-flight; without it,
        only component state (caches, predictors, …) is captured — e.g.
        to reuse warmed state across runs.
        """
        from ..reliability.checkpoint import SimCheckpoint
        if self.instrument is not None:
            # fold the instrument cursors (window states, sampler phase,
            # instruction indices) into the sealed extras so restore can
            # re-arm mid-window
            extras = dict(extras) if extras else {}
            extras.setdefault("instrument", self.instrument.state())
        return SimCheckpoint.capture(self, run=run, extras=extras)

    def restore(self, ckpt, traces: list[Trace] | None = None,
                watchdog=None, fault_plan=None) -> ParallelRun | None:
        """Restore a checkpoint onto this system, in place.

        The checkpoint must match this system's config (fingerprint
        checked) and pass the invariant audit.  For a mid-run checkpoint
        the original *traces* must be supplied (verified against the
        recorded per-lane fingerprints) and the returned
        :class:`ParallelRun` continues bit-identically to the
        uninterrupted run; for a bare snapshot, returns None.
        """
        from ..reliability.checkpoint import (
            CheckpointError,
            restore_system,
            result_from_state,
            trace_fingerprint,
        )
        ckpt.verify()
        ckpt.audit(self)
        restore_system(self, ckpt.state)
        if self.instrument is not None:
            # re-arm windows/sampler/cursors where the donor run left off
            inst_state = ckpt.extras.get("instrument")
            if inst_state is not None:
                self.instrument.load_state(inst_state)
        if ckpt.lanes is None:
            self.last_scheduler = None
            self.last_watchdog = None
            return None
        if traces is None:
            raise CheckpointError(
                "mid-run checkpoint: pass the original traces to restore")
        if len(traces) != len(ckpt.lanes):
            raise CheckpointError(
                f"checkpoint has {len(ckpt.lanes)} lanes, got "
                f"{len(traces)} traces")
        lanes = []
        for i, (trace, ls) in enumerate(zip(traces, ckpt.lanes)):
            if trace_fingerprint(trace) != ls["trace_fp"]:
                raise CheckpointError(
                    f"lane {i}: trace does not match the checkpointed "
                    f"trace (fingerprint mismatch)")
            result = (result_from_state(ls["result"])
                      if ls["result"] is not None else None)
            lanes.append(_TileLane(self.tiles[i], trace, int(ls["chunk"]),
                                   int(ls["offset"]), result, self.instrument))
        if watchdog is not None:
            # A watchdog carried over from the pre-crash run still holds
            # that run's lane clocks; restored lanes resume from the
            # checkpointed (earlier) position, which stale state would
            # misread as "no progress" and escalate to a spurious hang.
            watchdog.reset()
        run = ParallelRun(self, traces, quantum=int(ckpt.scheduler["quantum"]),
                          watchdog=watchdog, fault_plan=fault_plan,
                          _lanes=lanes)
        run.scheduler.load_state(ckpt.scheduler)
        return run

    def seconds(self, result: CoreResult) -> float:
        """Target wall-clock of a result at this system's core frequency."""
        return result.cycles / (self.cfg.core_ghz * 1e9)

    def warm(self, *traces: Trace, tile: int = 0) -> None:
        """Run warmup slices on *tile*, discarding the timing.

        Trains caches, TLBs, and predictors so a subsequent measured run
        sees steady state — the window a telemetry baseline should follow::

            reg = StatsRegistry(system)
            system.warm(trace)          # train
            base = reg.snapshot()       # baseline after warmup
            result = system.run(trace)  # measured pass
            hot = reg.delta(base)

        Called with no traces it remains a no-op (systems start cold).
        """
        for trace in traces:
            self.tiles[tile].core.run(trace)

    def __repr__(self) -> str:
        return f"System({self.cfg.name}, {self.cfg.ncores}x {self.cfg.core_type} @ {self.cfg.core_ghz} GHz)"
