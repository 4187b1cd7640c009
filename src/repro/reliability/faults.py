"""Seeded, deterministic fault injection for chaos-testing the stack.

A :class:`FaultPlan` is a reproducible list of :class:`Fault`\\ s parsed
from a tiny DSL (one fault per line or ``;``-separated)::

    kill job=2                      # worker exits hard on job 2, attempt 1
    kill job=2 attempt=1 after=8    # ... after 8 scheduler quanta
    hang job=1 sleep=30             # worker sleeps until the farm timeout
    error job=3 attempt=2           # worker raises FaultInjected
    token-drop lane=0 quantum=10    # steal a token -> channel underflow
    token-dup lane=1 quantum=10     # forge a token -> audit/watchdog trips
    corrupt-line tile=0 cache=l1d   # duplicate a cache tag -> audit trips
    corrupt-cache entry=0           # garbage a farm cache file
    truncate-cache entry=1          # cut a farm cache file in half
    host-stall host=a count=2       # first 2 launches on host a hang
    socket-drop request=3           # server drops client connection 3

Farm faults (``kill``/``hang``/``error``) key on the job *index* in the
submitted batch and an optional ``attempt`` (default 1), so retries run
clean and the batch still converges.  ``corrupt-cache``/``truncate-cache``
key on the batch index of the job whose cache entry to damage.  The plan
carries a seed; anything random (which bytes to garble, which set to
corrupt) derives from it, so a chaos run is exactly replayable.

Serve-layer faults extend the same plan up the stack (PR 8's chaos
harness): ``host-stall`` keys on a deploy-manager host name and hangs
the first ``count`` worker launches placed on it (exercising timeout →
quarantine → checkpoint migration), and ``socket-drop`` keys on the
server's 1-based request ordinal, closing that client connection
*before* the request is dispatched — so a client retry is always safe
and never double-submits.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "FaultPlanError",
    "apply_token_fault",
    "apply_worker_fault",
    "corrupt_cache_entry",
    "corrupt_cache_line",
]

FAULT_KINDS = frozenset({
    "kill", "hang", "error",            # farm worker faults
    "token-drop", "token-dup",          # lockstep token faults
    "corrupt-line",                     # in-simulation cache corruption
    "corrupt-cache", "truncate-cache",  # on-disk result-cache damage
    "host-stall", "socket-drop",        # serve-layer chaos faults
})

_WORKER_KINDS = frozenset({"kill", "hang", "error"})
_CACHE_KINDS = frozenset({"corrupt-cache", "truncate-cache"})
_TOKEN_KINDS = frozenset({"token-drop", "token-dup"})


class FaultPlanError(ValueError):
    """A fault-plan DSL string could not be parsed."""


class FaultInjected(RuntimeError):
    """An injected fault fired (the in-process flavour of a worker kill)."""


def _coerce(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class Fault:
    """One injected fault: a kind plus ``key=value`` parameters."""

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}")

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def describe(self) -> str:
        """The DSL line that parses back to this fault."""
        parts = [self.kind] + [f"{k}={v}" for k, v in self.params]
        return " ".join(parts)

    @classmethod
    def parse(cls, line: str) -> "Fault":
        tokens = line.split()
        kind, params = tokens[0], []
        for tok in tokens[1:]:
            if "=" not in tok:
                raise FaultPlanError(
                    f"bad fault parameter {tok!r} in {line!r} "
                    f"(expected key=value)")
            k, _, v = tok.partition("=")
            params.append((k, _coerce(v)))
        return cls(kind, tuple(params))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded collection of faults."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the DSL: one fault per line, ``#`` comments, ``;`` splits."""
        faults = []
        for raw in text.replace(";", "\n").splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                faults.append(Fault.parse(line))
        return cls(tuple(faults), seed=seed)

    def __len__(self) -> int:
        return len(self.faults)

    def describe(self) -> str:
        return "\n".join(f.describe() for f in self.faults)

    def rng(self) -> random.Random:
        """A fresh deterministic stream (same seed → same damage)."""
        return random.Random(self.seed)

    # -- selectors ------------------------------------------------------------

    def worker_fault(self, index: int, attempt: int = 1) -> Fault | None:
        """The kill/hang/error fault for batch job *index* on *attempt*."""
        for f in self.faults:
            if (f.kind in _WORKER_KINDS and f.param("job") == index
                    and f.param("attempt", 1) == attempt):
                return f
        return None

    def token_faults(self, quantum: int) -> list[Fault]:
        """Token faults due when the scheduler has completed *quantum* quanta."""
        return [f for f in self.faults
                if f.kind in _TOKEN_KINDS and f.param("quantum", 0) == quantum]

    def line_faults(self, quantum: int) -> list[Fault]:
        """corrupt-line faults due at *quantum* (default: quantum 0)."""
        return [f for f in self.faults
                if f.kind == "corrupt-line"
                and f.param("quantum", 0) == quantum]

    def cache_faults(self) -> list[Fault]:
        return [f for f in self.faults if f.kind in _CACHE_KINDS]

    def host_stall(self, host: str, launch: int) -> Fault | None:
        """The host-stall fault covering 0-based *launch* on *host*.

        ``host-stall host=a count=2`` stalls launches 0 and 1 placed on
        host ``a``; the stalled worker sleeps ``sleep`` seconds (default
        3600 — in practice "until the watchdog kills it")."""
        for f in self.faults:
            if (f.kind == "host-stall" and str(f.param("host")) == host
                    and launch < int(f.param("count", 1))):
                return f
        return None

    def socket_drop(self, request: int) -> bool:
        """True when the server should drop *request* (1-based ordinal)
        before dispatching it."""
        return any(f.kind == "socket-drop" and f.param("request") == request
                   for f in self.faults)


# -- appliers -----------------------------------------------------------------


def apply_worker_fault(fault: Fault, *, in_process: bool) -> None:
    """Fire a worker fault.  ``in_process`` = serial mode (no real kill)."""
    if fault.kind == "kill":
        if in_process:
            raise FaultInjected(f"injected worker kill ({fault.describe()})")
        os._exit(13)
    elif fault.kind in ("hang", "host-stall"):
        time.sleep(float(fault.param("sleep", 3600.0)))
    elif fault.kind == "error":
        raise FaultInjected(f"injected worker error ({fault.describe()})")
    else:
        raise FaultPlanError(f"{fault.kind!r} is not a worker fault")


def apply_token_fault(fault: Fault, scheduler) -> None:
    """Drop or forge one token on a lane's channel."""
    lane = int(fault.param("lane", 0))
    if not 0 <= lane < len(scheduler.channels):
        raise FaultPlanError(f"token fault lane {lane} out of range")
    channel = scheduler.channels[lane]
    if fault.kind == "token-drop":
        channel.consume(1)  # underflows: consumer ran ahead
    elif fault.kind == "token-dup":
        channel.produce(1)  # forged token: conservation audit now fails
    else:
        raise FaultPlanError(f"{fault.kind!r} is not a token fault")


def corrupt_cache_line(system, tile: int = 0, cache: str = "l1d",
                       rng: random.Random | None = None) -> str:
    """Duplicate a resident tag inside one cache set (silent data corruption).

    The damage is exactly what the checkpoint audit's per-set
    tag-uniqueness invariant detects.  Returns the damaged cache's name.
    """
    rng = rng or random.Random(0)
    if cache == "l2":
        target = system.uncore.l2
    else:
        port = system.tiles[tile].port
        target = {"l1i": port.l1i, "l1d": port.l1d}.get(cache)
        if target is None:
            raise FaultPlanError(f"unknown cache {cache!r} for corrupt-line")
    tags = target._tags
    # prefer a set that already holds a line; else forge one in an
    # untouched set
    candidates = [s for s, row in enumerate(tags) if row]
    if candidates:
        row = tags[rng.choice(candidates)]
    else:
        s = rng.randrange(len(tags))
        row = tags[s] = tags[s] or []
        row.append(0x51C0FFEE)
    if len(row) > 1:
        row[1] = row[0]
    else:
        row.append(row[0])
    return target.name


def corrupt_cache_entry(cache, key: str, mode: str = "garbage",
                        rng: random.Random | None = None) -> Path | None:
    """Damage the on-disk farm cache entry for *key*; returns its path.

    Modes: ``garbage`` (overwrite a byte span), ``truncate`` (cut the
    file in half), ``schema`` (valid JSON, wrong schema number).  Returns
    None if the entry does not exist.
    """
    rng = rng or random.Random(0)
    path = cache.path(key)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    if mode == "truncate":
        path.write_bytes(blob[:max(1, len(blob) // 2)])
    elif mode == "garbage":
        data = bytearray(blob)
        start = rng.randrange(max(1, len(data) - 8))
        for i in range(start, min(len(data), start + 8)):
            data[i] = rng.randrange(256)
        # ensure it is no longer valid JSON at all
        data[0:1] = b"\x00"
        path.write_bytes(bytes(data))
    elif mode == "schema":
        import json
        entry = json.loads(blob)
        entry["schema"] = -1
        path.write_text(json.dumps(entry))
    else:
        raise FaultPlanError(f"unknown cache-corruption mode {mode!r}")
    return path
