"""Simulated-MPI runtime: cooperative rank scheduling over a multi-tile system.

Each MPI rank is a generator (see :mod:`repro.smpi.comm`) bound to one tile
of a :class:`repro.soc.System`.  The runtime is a discrete-event scheduler:

* the ready rank with the smallest local clock always runs next, so tiles
  interleave on the shared uncore in near time order (the same property the
  FireSim token scheme guarantees);
* ``Compute`` ops run the rank's trace on its tile in bounded chunks,
  windows ``[offset:offset + chunk]`` of the one trace, never slices;
* point-to-point matching implements eager (buffered) and rendezvous
  protocols over the :class:`repro.smpi.network.NetworkModel`;
* payloads are real objects, so applications produce genuine results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..reliability.watchdog import SimulationHang
from ..soc.system import System
from .comm import Comm, Compute, Recv, Send, SendRecv
from .network import NetworkModel, shared_memory_network

__all__ = ["RankResult", "SMPIRuntime", "DeadlockError", "run_mpi"]


class DeadlockError(SimulationHang):
    """All unfinished ranks are blocked with no possible match.

    A :class:`~repro.reliability.SimulationHang` whose ``diagnostics``
    carry per-rank state — clock, status, and every unmatched
    send/recv/sendrecv key — so a collective rank mismatch is attributed,
    not just announced.
    """


@dataclass
class RankResult:
    """Per-rank outcome of an MPI run."""

    rank: int
    cycles: int = 0             #: final local clock (target cycles)
    instructions: int = 0
    compute_cycles: int = 0     #: cycles spent inside Compute ops
    comm_cycles: int = 0        #: cycles spent blocked/transferring
    messages_sent: int = 0
    bytes_sent: int = 0
    value: Any = None           #: the program's return value


_READY, _BLOCKED, _DONE = 0, 1, 2


@dataclass
class _Msg:
    payload: Any
    nbytes: int
    ready: int
    sender: int | None  #: rank index blocked in rendezvous, else None


@dataclass
class _RankState:
    idx: int
    gen: Any
    clock: int = 0
    status: int = _READY
    resume: Any = None
    pending_trace: Any = None   #: trace of an in-progress Compute
    trace_off: int = 0          #: where its next chunk starts
    result: RankResult = field(default_factory=lambda: RankResult(rank=-1))


class SMPIRuntime:
    """Schedule ``nranks`` rank programs over the tiles of *system*."""

    def __init__(self, system: System, nranks: int | None = None,
                 network: NetworkModel | None = None, chunk: int = 4096,
                 registry=None) -> None:
        self.system = system
        #: optional repro.telemetry.StatsRegistry; when set, run() stores
        #: the measure-window counter delta in self.telemetry
        self.registry = registry
        self.telemetry = None
        self.nranks = nranks if nranks is not None else system.cfg.ncores
        if self.nranks > len(system.tiles):
            raise ValueError(
                f"{self.nranks} ranks need {self.nranks} tiles; system has "
                f"{len(system.tiles)}"
            )
        if self.nranks < 1:
            raise ValueError("need at least one rank")
        self.network = network or shared_memory_network(system.cfg.core_ghz)
        self.chunk = chunk
        # (src, dst, tag) -> queued messages / waiting receivers
        self._sends: dict[tuple[int, int, int], deque[_Msg]] = {}
        self._recvs: dict[tuple[int, int, int], deque[int]] = {}
        # (rank, partner, tag) -> posted SendRecv
        self._xchg: dict[tuple[int, int, int], tuple[int, Any, int, int]] = {}

    # -- public API -------------------------------------------------------

    def run(self, program: Callable[[Comm], Any]) -> list[RankResult]:
        """Instantiate *program* on every rank and run to completion."""
        states = []
        for r in range(self.nranks):
            st = _RankState(idx=r, gen=program(Comm(r, self.nranks)))
            st.result = RankResult(rank=r)
            states.append(st)
        self._states = states
        baseline = self.registry.snapshot() if self.registry is not None else None

        while True:
            ready = [s for s in states if s.status == _READY]
            if not ready:
                if all(s.status == _DONE for s in states):
                    break
                blocked = [s.idx for s in states if s.status == _BLOCKED]
                raise DeadlockError(f"ranks {blocked} are deadlocked",
                                    diagnostics=self._diagnose(states))
            st = min(ready, key=lambda s: (s.clock, s.idx))
            self._step(st)

        for st in states:
            st.result.cycles = st.clock
        if baseline is not None:
            self.telemetry = self.registry.delta(baseline)
        return [s.result for s in states]

    def _diagnose(self, states: list[_RankState]) -> dict:
        """Structured deadlock evidence: who waits on whom, and for what."""
        names = {_READY: "ready", _BLOCKED: "blocked", _DONE: "done"}
        ranks = []
        for st in states:
            ranks.append({
                "rank": st.idx,
                "clock": st.clock,
                "status": names.get(st.status, st.status),
                # (src, dst, tag) keys this rank is a party to
                "unmatched_sends": sorted(
                    k for k, q in self._sends.items() if q and k[0] == st.idx),
                "unmatched_recvs": sorted(
                    k for k, q in self._recvs.items()
                    if st.idx in q),
                "posted_sendrecv": sorted(
                    k for k in self._xchg if k[0] == st.idx),
            })
        return {
            "nranks": self.nranks,
            "ranks": ranks,
            "hint": "a (src, dst, tag) listed under exactly one rank is a "
                    "collective/sendrecv rank mismatch",
        }

    # -- scheduling internals -----------------------------------------------

    def _step(self, st: _RankState) -> None:
        # continue an in-progress compute first
        if st.pending_trace is not None:
            self._run_compute_chunk(st)
            return
        try:
            op = st.gen.send(st.resume)
        except StopIteration as stop:
            st.status = _DONE
            st.result.value = stop.value
            return
        st.resume = None
        if isinstance(op, Compute):
            st.pending_trace = op.trace
            st.trace_off = 0
            self._run_compute_chunk(st)
        elif isinstance(op, Send):
            self._do_send(st, op)
        elif isinstance(op, Recv):
            self._do_recv(st, op)
        elif isinstance(op, SendRecv):
            self._do_sendrecv(st, op)
        else:
            raise TypeError(f"rank {st.idx} yielded unknown op {op!r}")

    def _tile_for(self, rank: int):
        """Tile executing *rank* (overridden by the multi-node runtime)."""
        return self.system.tiles[rank]

    def _net_for(self, src: int, dst: int) -> NetworkModel:
        """Network model for a rank pair (overridden for multi-node)."""
        return self.network

    def _run_compute_chunk(self, st: _RankState) -> None:
        trace = st.pending_trace
        stop = min(st.trace_off + self.chunk, len(trace))
        core = self._tile_for(st.idx).core
        r = core.run(trace, start_time=st.clock, start=st.trace_off, stop=stop)
        st.clock = core.local_time
        st.result.instructions += r.instructions
        st.result.compute_cycles += r.cycles
        st.trace_off = stop
        if stop >= len(trace):
            st.pending_trace = None

    # -- point-to-point ------------------------------------------------------

    def _do_send(self, st: _RankState, op: Send) -> None:
        net = self._net_for(st.idx, op.dst)
        key = (st.idx, op.dst, op.tag)
        st.result.messages_sent += 1
        st.result.bytes_sent += op.nbytes or 0
        eager = (op.nbytes or 0) <= net.eager_limit
        msg = _Msg(op.payload, op.nbytes or 0, st.clock,
                   sender=None if eager else st.idx)
        self._sends.setdefault(key, deque()).append(msg)
        if eager:
            st.clock += max(1, net.alpha_cycles // 2)  # local copy-out cost
        else:
            st.status = _BLOCKED
        self._try_match(key)

    def _do_recv(self, st: _RankState, op: Recv) -> None:
        st.status = _BLOCKED
        key = (op.src, st.idx, op.tag)
        self._recvs.setdefault(key, deque()).append(st.idx)
        self._try_match(key)

    def _try_match(self, key: tuple[int, int, int]) -> None:
        sends = self._sends.get(key)
        recvs = self._recvs.get(key)
        while sends and recvs:
            msg = sends.popleft()
            ridx = recvs.popleft()
            rst = self._states[ridx]
            start = max(msg.ready, rst.clock)
            done = start + self._net_for(key[0], key[1]).transfer_cycles(msg.nbytes)
            rst.result.comm_cycles += done - rst.clock
            rst.clock = done
            rst.status = _READY
            rst.resume = msg.payload
            if msg.sender is not None:  # rendezvous sender unblocks too
                sst = self._states[msg.sender]
                sst.result.comm_cycles += done - sst.clock
                sst.clock = done
                sst.status = _READY

    def _do_sendrecv(self, st: _RankState, op: SendRecv) -> None:
        st.result.messages_sent += 1
        st.result.bytes_sent += op.nbytes or 0
        mine = (st.idx, op.partner, op.tag)
        theirs = (op.partner, st.idx, op.tag)
        other = self._xchg.pop(theirs, None)
        if other is None:
            st.status = _BLOCKED
            self._xchg[mine] = (st.idx, op.payload, op.nbytes or 0, st.clock)
            return
        oidx, opayload, onbytes, oclock = other
        ost = self._states[oidx]
        nbytes = max(op.nbytes or 0, onbytes)
        net = self._net_for(st.idx, op.partner)
        done = max(st.clock, oclock) + net.transfer_cycles(nbytes)
        for s, payload in ((st, opayload), (ost, op.payload)):
            s.result.comm_cycles += done - s.clock
            s.clock = done
            s.status = _READY
            s.resume = payload


def run_mpi(system: System, nranks: int,
            program: Callable[[Comm], Any],
            network: NetworkModel | None = None,
            chunk: int = 4096) -> list[RankResult]:
    """Convenience wrapper: build a runtime and run *program* on *nranks*.

    For telemetry over the run, construct an :class:`SMPIRuntime` with a
    ``registry`` and read ``runtime.telemetry`` after ``run()``.
    """
    return SMPIRuntime(system, nranks, network, chunk).run(program)
