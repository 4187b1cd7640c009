"""FireSim-style simulation manager.

The manager is the user-facing entry point for "running something in
FireSim": it builds a :class:`repro.soc.System` from a FireSim design
(refusing silicon references), runs workloads, and reports both *target*
time (what the simulated machine would take) and estimated *host*
wall-clock (what the FPGA cluster spends), mirroring how the real
``firesim`` manager reports simulation progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..isa.trace import Trace
from ..smpi.runtime import RankResult, SMPIRuntime
from ..soc.config import SoCConfig
from ..soc.system import System
from ..telemetry import CPIStack, Snapshot, StatsRegistry, cpi_stack, cpi_stacks
from .host import HostModel, host_model_for

__all__ = ["SimulationReport", "FireSimManager"]


@dataclass
class SimulationReport:
    """Outcome of one FireSim simulation."""

    design: str
    target_cycles: int
    target_seconds: float
    host_seconds: float
    slowdown: float
    instructions: int = 0
    ranks: list[RankResult] = field(default_factory=list)
    #: counter delta over the run (see repro.telemetry)
    telemetry: Snapshot | None = None
    #: per-tile/per-rank cycle attribution for the run
    cpi: list[CPIStack] = field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"[{self.design}] target {self.target_seconds * 1e3:.3f} ms "
            f"({self.target_cycles} cycles), host ~{self.host_seconds:.1f} s "
            f"({self.slowdown:.0f}x slowdown)"
        )


class FireSimManager:
    """Drive simulations of one FireSim design."""

    def __init__(self, config: SoCConfig) -> None:
        if config.is_silicon:
            raise ValueError(
                f"{config.name} is physical-hardware reference; FireSim "
                "only simulates the Rocket/BOOM designs"
            )
        self.config = config
        self.host: HostModel = host_model_for(config)
        self.system = System(config)
        self.registry = StatsRegistry(self.system)
        #: scheduler counters of the most recent :meth:`run_batch`
        self.farm_stats = None

    def reset(self) -> None:
        """Fresh target state (new System), as a new simulation run would."""
        self.system = System(self.config)
        self.registry = StatsRegistry(self.system)

    # -- single-core trace workloads ------------------------------------------

    def run_trace(self, trace: Trace, tile: int = 0) -> SimulationReport:
        """Simulate a single instruction trace on one tile."""
        base = self.registry.snapshot()
        result = self.system.run(trace, tile=tile)
        rep = self._report(result.cycles, result.instructions)
        rep.telemetry = self.registry.delta(base)
        rep.cpi = [cpi_stack(self.system, result, rep.telemetry, tile=tile)]
        return rep

    # -- MPI workloads -------------------------------------------------------

    def run_mpi(self, nranks: int, program) -> SimulationReport:
        """Simulate an MPI rank program across the design's tiles."""
        runtime = SMPIRuntime(self.system, nranks, registry=self.registry)
        results = runtime.run(program)
        cycles = max(r.cycles for r in results)
        instrs = sum(r.instructions for r in results)
        rep = self._report(cycles, instrs)
        rep.ranks = results
        rep.telemetry = runtime.telemetry
        rep.cpi = cpi_stacks(self.system, results, rep.telemetry,
                             comm_cycles=[r.comm_cycles for r in results])
        return rep

    # -- batch workloads (the run farm) --------------------------------------

    def run_batch(self, kernels: Sequence[str], scale: float = 1.0,
                  seed: int = 0, *, quantum: int | None = None,
                  **farm_kw) -> list[SimulationReport]:
        """Farm a batch of MicroBench kernels for this design.

        The batch entry point mirrors ``firesim runworkload``: each
        kernel becomes an independent :class:`repro.farm.Job`, the list
        runs on a :class:`repro.farm.RunFarm` built from *farm_kw*
        (``workers=``, ``cache=``, ``max_retries=``, ``fault_plan=``,
        ``checkpoint_dir=``, ...), and results come back in kernel order
        as full :class:`SimulationReport` objects — telemetry snapshot
        and CPI stack included — bit-identical to running each kernel
        serially.  Farm counters land on :attr:`farm_stats`.  Any job
        that still fails after its retries raises.

        With *quantum* set, each kernel runs through the token-lockstep
        path in quanta of that many cycles; with a ``checkpoint_dir``
        that makes every job checkpointable, so a crashed, killed or
        timed-out worker's retry resumes mid-run instead of restarting
        (see :mod:`repro.reliability`).
        """
        from ..farm import Job, RunFarm

        jobs = [Job.kernel(self.config, name, scale=scale, seed=seed,
                           quantum=quantum)
                for name in kernels]
        farm = RunFarm(**farm_kw)
        results = farm.run(jobs)
        self.farm_stats = farm.stats
        failed = [r for r in results if not r.ok]
        if failed:
            lines = "; ".join(f"{r.job.label}: {r.error}" for r in failed)
            raise RuntimeError(
                f"{len(failed)}/{len(results)} batch job(s) failed: {lines}")
        return [self._report_from_payload(r.payload) for r in results]

    def _report_from_payload(self, payload: dict[str, Any]) -> SimulationReport:
        """Rehydrate a farmed job payload into a SimulationReport."""
        rep = self._report(payload["cycles"], payload["instructions"])
        if payload.get("telemetry") is not None:
            rep.telemetry = Snapshot(payload["telemetry"])
        rep.cpi = [CPIStack.from_dict(d) for d in payload.get("cpi", [])]
        return rep

    def _report(self, cycles: int, instructions: int) -> SimulationReport:
        ghz = self.config.core_ghz
        return SimulationReport(
            design=self.config.name,
            target_cycles=cycles,
            target_seconds=cycles / (ghz * 1e9),
            host_seconds=self.host.wall_seconds(cycles),
            slowdown=self.host.slowdown(ghz),
            instructions=instructions,
        )
