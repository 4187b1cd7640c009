"""Shared plumbing for the NAS Parallel Benchmark implementations.

Each benchmark is a *real* parallel algorithm: the numerics run in NumPy
and the MPI data movement runs through :mod:`repro.smpi` with real
payloads, so results are verifiable.  Timing comes from lowering each
compute phase into a trace (op mix + genuine address streams) via
:class:`repro.workloads.base.PhaseEmitter`.

Problem classes follow NPB conventions (S < W < A) but are rescaled so a
full run is a few hundred thousand simulated instructions — the same
reasoning the paper applies when it picks Class A "because it can be run
on actual hardware in roughly ten seconds, while its simulation takes on
the order of few hours".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...smpi.runtime import RankResult, run_mpi
from ...soc.config import SoCConfig
from ...soc.system import System

__all__ = ["AddressSpace", "NPBResult", "CLASS_NAMES", "check_class",
           "run_npb_program"]

CLASS_NAMES = ("S", "W", "A")


def check_class(cls: str) -> str:
    """Validate an NPB problem-class name."""
    if cls not in CLASS_NAMES:
        raise ValueError(f"unknown NPB class {cls!r}; use one of {CLASS_NAMES}")
    return cls

#: 16 GiB of private address space per rank: ranks are separate processes,
#: so their data must not alias in the (physically shared) L2.
_RANK_STRIDE = 1 << 34
_HEAP_BASE = 1 << 32


class AddressSpace:
    """Per-rank bump allocator for synthetic virtual addresses."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._next = _HEAP_BASE + rank * _RANK_STRIDE

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve *nbytes* and return the base address."""
        base = (self._next + align - 1) // align * align
        self._next = base + nbytes
        return base

    def addrs(self, base: int, index: np.ndarray, itemsize: int = 8) -> np.ndarray:
        """Element addresses for integer indices into an array at *base*."""
        return (base + index.astype(np.int64) * itemsize).astype(np.uint64)


@dataclass
class NPBResult:
    """Outcome of one NPB run on one configuration."""

    benchmark: str
    cls: str
    config: str
    nranks: int
    verified: bool
    cycles: int                 #: slowest rank's clock (time to completion)
    core_ghz: float
    ranks: list[RankResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.cycles / (self.core_ghz * 1e9)

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.ranks)

    def __repr__(self) -> str:
        flag = "OK" if self.verified else "FAILED-VERIFY"
        return (
            f"NPBResult({self.benchmark}.{self.cls} on {self.config} x{self.nranks}: "
            f"{self.seconds * 1e3:.2f} ms target, {flag})"
        )


def run_npb_program(config: SoCConfig, nranks: int, benchmark: str, cls: str,
                    program_factory, verify) -> NPBResult:
    """Run a rank-program factory on a fresh system and verify the result.

    ``program_factory(comm)`` builds the per-rank generator; ``verify`` maps
    the list of rank return values to a bool.
    """
    if cls not in CLASS_NAMES:
        raise ValueError(f"unknown NPB class {cls!r}; use one of {CLASS_NAMES}")
    system = System(config)
    results = run_mpi(system, nranks, program_factory)
    cycles = max(r.cycles for r in results)
    ok = bool(verify([r.value for r in results]))
    return NPBResult(
        benchmark=benchmark,
        cls=cls,
        config=config.name,
        nranks=nranks,
        verified=ok,
        cycles=cycles,
        core_ghz=config.core_ghz,
        ranks=results,
    )
