"""Rank-side MPI interface: primitive ops plus collective algorithms.

A rank program is a Python generator that *yields* primitive operations —
:class:`Compute`, :class:`Send`, :class:`Recv`, :class:`SendRecv` — to the
runtime, which resumes it with the operation's result (received payload for
``Recv``/``SendRecv``).  The :class:`Comm` facade wraps the primitives and
implements the collective algorithms MPI libraries actually use:

* allreduce — recursive doubling (power-of-two ranks) with real payload
  combination,
* barrier — dissemination,
* allgather — ring,
* alltoall — pairwise exchange.

Payloads are real (NumPy arrays or picklable objects), so application
kernels running on the simulated MPI produce genuine numerical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

import numpy as np

from ..isa.trace import Trace

__all__ = ["Compute", "Send", "Recv", "SendRecv", "Comm", "nbytes_of"]


def nbytes_of(payload: Any) -> int:
    """Wire size of a payload (ndarray nbytes; small fixed cost otherwise)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, bool, np.integer, np.floating)):
        return 8
    return 64  # envelope estimate for small python objects


@dataclass
class Compute:
    """Run an instruction trace on this rank's tile."""

    trace: Trace


@dataclass
class Send:
    """Point-to-point send; eager below the network's eager limit."""

    dst: int
    payload: Any = None
    tag: int = 0
    nbytes: int | None = None

    def __post_init__(self) -> None:
        if self.nbytes is None:
            self.nbytes = nbytes_of(self.payload)


@dataclass
class Recv:
    """Blocking receive; resumes the rank with the payload."""

    src: int
    tag: int = 0


@dataclass
class SendRecv:
    """Simultaneous exchange with a partner (matches the partner's SendRecv)."""

    partner: int
    payload: Any = None
    tag: int = 0
    nbytes: int | None = None

    def __post_init__(self) -> None:
        if self.nbytes is None:
            self.nbytes = nbytes_of(self.payload)


Op = Compute | Send | Recv | SendRecv
Program = Generator[Op, Any, Any]


class Comm:
    """Communicator handle passed to each rank program."""

    def __init__(self, rank: int, size: int) -> None:
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size

    # -- primitives (thin generator wrappers) --------------------------------

    def compute(self, trace: Trace) -> Program:
        yield Compute(trace)

    def send(self, dst: int, payload: Any = None, tag: int = 0,
             nbytes: int | None = None) -> Program:
        yield Send(dst, payload, tag, nbytes)

    def recv(self, src: int, tag: int = 0) -> Program:
        return (yield Recv(src, tag))

    def sendrecv(self, partner: int, payload: Any = None, tag: int = 0,
                 nbytes: int | None = None) -> Program:
        return (yield SendRecv(partner, payload, tag, nbytes))

    # -- collectives ----------------------------------------------------------

    def barrier(self, tag: int = 7000) -> Program:
        """Dissemination barrier: ceil(log2 p) rounds of pairwise exchange."""
        p, r = self.size, self.rank
        step = 1
        round_ = 0
        while step < p:
            dst = (r + step) % p
            src = (r - step) % p
            yield Send(dst, None, tag + round_, nbytes=0)
            yield Recv(src, tag + round_)
            step <<= 1
            round_ += 1

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None,
                  tag: int = 7200) -> Program:
        """Recursive-doubling allreduce (with a fold-in step for non-powers
        of two); returns the combined value on every rank."""
        if op is None:
            op = _add
        p, r = self.size, self.rank
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2
        # fold the excess ranks into the power-of-two set
        if r < 2 * rem:
            if r % 2:  # odd ranks send their value and wait for the result
                yield Send(r - 1, value, tag)
                value = yield Recv(r - 1, tag + 99)
                return value
            other = yield Recv(r + 1, tag)
            value = op(value, other)
            newr = r // 2
        elif rem:
            newr = r - rem
        else:
            newr = r
        mask = 1
        while mask < pof2:
            partner_new = newr ^ mask
            partner = partner_new * 2 if partner_new < rem else partner_new + rem
            other = yield SendRecv(partner, value, tag + mask)
            value = op(value, other)
            mask <<= 1
        if r < 2 * rem:
            yield Send(r + 1, value, tag + 99)
        return value

    def allgather(self, value: Any, tag: int = 7400) -> Program:
        """Ring allgather; returns the list of all ranks' values.

        Parity-ordered: odd ranks receive before sending, so the ring has
        no cyclic wait even when large payloads use the rendezvous
        protocol (any ring with a rank 1 breaks the cycle).
        """
        p, r = self.size, self.rank
        out: list[Any] = [None] * p
        out[r] = value
        current = value
        for step in range(p - 1):
            dst = (r + 1) % p
            src = (r - 1) % p
            if r % 2 == 0:
                yield Send(dst, current, tag + step)
                current = yield Recv(src, tag + step)
            else:
                incoming = yield Recv(src, tag + step)
                yield Send(dst, current, tag + step)
                current = incoming
            out[(r - step - 1) % p] = current
        return out

    def alltoall(self, values: list, tag: int = 7500) -> Program:
        """Pairwise-exchange alltoall; ``values[i]`` goes to rank *i*.

        Rounds follow a 1-factorization of the complete graph: in round
        ``k`` rank ``r`` pairs with ``(k - r) mod p``, which is symmetric
        (each pair agrees on the round), so every exchange is a matched
        :class:`SendRecv` and the schedule is deadlock-free for any ``p``.
        """
        p, r = self.size, self.rank
        if len(values) != p:
            raise ValueError(f"alltoall needs {p} values, got {len(values)}")
        out: list[Any] = [None] * p
        out[r] = values[r]
        for k in range(p):
            partner = (k - r) % p
            if partner == r:
                continue
            out[partner] = yield SendRecv(partner, values[partner], tag + k)
        return out


def _add(a: Any, b: Any) -> Any:
    return a + b
