"""Retry schedule of the executor core.

:meth:`repro.farm.executor.Executor.settle` decides whether a failed
attempt may retry (the charge rule lives there) and asks this policy
how long the job waits first, for the batch
:class:`~repro.farm.runfarm.RunFarm` and the
:class:`~repro.serve.server.FarmServer` alike; operators tune the
schedule (``--backoff`` base, growth factor, cap) in one place.

The default is exponential: attempt *n* waits ``base_s * factor**(n-1)``
seconds, capped at ``cap_s``.  ``factor=1.0`` recovers a flat delay and
``cap_s`` bounds the tail so a long retry budget never waits minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic relaunch-delay schedule (no jitter: replayable)."""

    base_s: float = 0.25    #: delay before the first retry
    factor: float = 2.0     #: per-attempt growth
    cap_s: float = 2.0      #: upper bound on any single delay

    def __post_init__(self) -> None:
        if self.base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {self.base_s}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.cap_s < 0:
            raise ValueError(f"cap_s must be >= 0, got {self.cap_s}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before relaunching after failed *attempt*
        (1-based).  Exponential in the attempt number, capped."""
        if self.base_s == 0.0:
            return 0.0
        n = max(1, int(attempt))
        return min(self.base_s * self.factor ** (n - 1), self.cap_s)
