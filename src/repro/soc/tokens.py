"""FireSim-style token-based lockstep coordination.

FireSim decouples target time from host time by exchanging *tokens*
between simulated components: a component may only advance its target
clock when it holds tokens from every peer, which bounds clock skew to the
token-channel capacity and makes multi-FPGA simulation deterministic.

We reproduce the scheme at the scheduler level: each lane (tile) advances
in bounded quanta, and the lane with the smallest local clock always runs
next, so cross-lane interactions through shared uncore state happen in a
deterministic, almost-time-ordered way regardless of Python iteration
order.

The scheduler is *stepwise*: :meth:`LockstepScheduler.bind` attaches the
lanes and :meth:`LockstepScheduler.step` advances exactly one quantum, so
callers (``ParallelRun.run``, checkpointing, the reliability watchdog)
can pause, inspect, snapshot, or abort between quanta.  Each lane owns
one :class:`TokenChannel`: the scheduler produces one token to grant a
quantum and the lane's completed advance consumes it, so at every
quantum boundary ``produced == consumed`` on every channel — the
conservation invariant the reliability audit checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

__all__ = ["TokenChannel", "Lane", "LockstepScheduler", "SchedulerStats"]


class TokenChannel:
    """Bounded token queue between a producer and a consumer clock domain.

    Capacity = maximum cycles the producer may run ahead of the consumer.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._produced = 0
        self._consumed = 0

    @property
    def occupancy(self) -> int:
        return self._produced - self._consumed

    def can_produce(self, n: int = 1) -> bool:
        return self.occupancy + n <= self.capacity

    def produce(self, n: int = 1) -> None:
        if not self.can_produce(n):
            raise RuntimeError("token channel overflow: producer ran ahead")
        self._produced += n

    def consume(self, n: int = 1) -> None:
        if self.occupancy < n:
            raise RuntimeError("token channel underflow: consumer ran ahead")
        self._consumed += n

    def state(self) -> dict:
        return {"capacity": self.capacity, "produced": self._produced,
                "consumed": self._consumed}

    def load_state(self, state: dict) -> None:
        self.capacity = int(state["capacity"])
        self._produced = int(state["produced"])
        self._consumed = int(state["consumed"])


class Lane(Protocol):
    """A schedulable clock domain (one tile running one instruction stream)."""

    def local_time(self) -> int:
        """Current target-clock position of this lane, in cycles."""
        ...

    def advance(self, until: int) -> bool:
        """Run until ``local_time() >= until`` or the stream ends.

        Returns True while more work remains.
        """
        ...


@dataclass
class SchedulerStats:
    quanta: int = 0
    max_skew: int = 0


class LockstepScheduler:
    """Advance lanes in token quanta, least-advanced lane first."""

    def __init__(self, quantum: int = 4096, *,
                 watchdog: Callable[["LockstepScheduler"], None] | None = None,
                 ) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self.stats = SchedulerStats()
        #: called after every quantum with the scheduler (hang detection)
        self.watchdog = watchdog
        self.lanes: list = []
        self.channels: list[TokenChannel] = []
        self._live: dict[int, object] = {}
        self._bound = False

    # -- stepwise API ---------------------------------------------------------

    def bind(self, lanes: list) -> None:
        """Attach lanes (one token channel each) without running them."""
        self.lanes = list(lanes)
        self.channels = [TokenChannel(capacity=1) for _ in self.lanes]
        self._live = {i: lane for i, lane in enumerate(self.lanes)}
        self._bound = True

    @property
    def done(self) -> bool:
        return self._bound and not self._live

    @property
    def live_lanes(self) -> list[int]:
        """Indices of lanes that still have work, in deterministic order."""
        return sorted(self._live)

    def next_lane(self) -> int | None:
        """Index of the lane the next :meth:`step` will advance."""
        if not self._live:
            return None
        live = self._live
        return min(live, key=lambda i: (live[i].local_time(), i))

    def step(self) -> bool:
        """Advance the least-advanced live lane by one quantum.

        Returns True if a lane was advanced, False when all lanes are done.
        One token flows through the advanced lane's channel: produced to
        grant the quantum, consumed when the advance completes, keeping
        every channel balanced at quantum boundaries.
        """
        if not self._bound:
            raise RuntimeError("scheduler not bound to lanes; call bind()")
        idx = self.next_lane()
        if idx is None:
            return False
        live = self._live
        lane = live[idx]
        channel = self.channels[idx]
        channel.produce(1)
        target = lane.local_time() + self.quantum
        more = lane.advance(target)
        channel.consume(1)
        self.stats.quanta += 1
        if live:
            times = [l.local_time() for l in live.values()]
            skew = max(times) - min(times)
            if skew > self.stats.max_skew:
                self.stats.max_skew = skew
        if not more:
            del live[idx]
        if self.watchdog is not None:
            self.watchdog(self)
        return True

    # -- checkpoint support ---------------------------------------------------

    def state(self) -> dict:
        """Serializable scheduler position (lane progress lives in lanes)."""
        return {
            "quantum": self.quantum,
            "quanta": self.stats.quanta,
            "max_skew": self.stats.max_skew,
            "live": sorted(self._live),
            "channels": [ch.state() for ch in self.channels],
        }

    def load_state(self, state: dict) -> None:
        """Restore a position captured by :meth:`state` (lanes already bound)."""
        if not self._bound:
            raise RuntimeError("bind() lanes before loading scheduler state")
        self.quantum = int(state["quantum"])
        self.stats.quanta = int(state["quanta"])
        self.stats.max_skew = int(state["max_skew"])
        chans = state["channels"]
        if len(chans) != len(self.channels):
            raise ValueError(
                f"scheduler state has {len(chans)} channels for "
                f"{len(self.channels)} lanes")
        for ch, st in zip(self.channels, chans):
            ch.load_state(st)
        live = set(int(i) for i in state["live"])
        self._live = {i: lane for i, lane in enumerate(self.lanes) if i in live}
