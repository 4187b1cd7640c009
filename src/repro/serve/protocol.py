"""Wire format shared by the serve server and its thin client.

Transport is a single request/response exchange of newline-delimited
JSON objects over a Unix-domain socket (or TCP with a ``tcp:host:port``
endpoint spec).  Requests carry an ``op`` field; responses carry
``ok: true`` plus op-specific payload, or ``ok: false`` with an
``error`` string.  Long-lived streaming (job progress, instrument
events) deliberately does *not* flow over the socket: jobs stream to
append-only JSONL files in the server spool (the PR 6 tailable format),
and clients follow them with ``repro tail`` /
:func:`repro.instrument.tail_stream` — so a slow or vanished client can
never stall the scheduler.

The one thing a client may leave open is a held ``status``: a request
for one job (``id``) that carries ``wait_s`` (seconds, capped by the
server) is answered — with the ordinary status document — only once the
job is in one of the states listed in ``until`` (default: the terminal
ones), can no longer change state, ``wait_s`` has passed, or the server
is stopping.  The argument above still holds: a held reply is one
future the job's next state change resolves, the scheduler never looks
at it, and a client that vanished meanwhile costs a write to a closed
socket.  Both fields are optional and a server that predates them
ignores them (it answers at once, and :meth:`ServeClient.wait` falls
back to asking again every ``poll_s``), so ``PROTOCOL_VERSION`` did not
change.

Job specs cross the wire as plain dicts (:func:`job_from_wire` /
:func:`job_to_wire`): the config travels by *name* and is rebuilt
server-side, which keeps requests small and the server the single
authority on model versions.
"""

from __future__ import annotations

from typing import Any

from ..farm.job import Job

__all__ = ["PROTOCOL_VERSION", "ServeError", "job_from_wire", "job_to_wire"]

#: bump on incompatible request/response changes
PROTOCOL_VERSION = 1


class ServeError(RuntimeError):
    """A request the server (or transport) rejected."""


def job_to_wire(job: Job) -> dict[str, Any]:
    """Flatten a :class:`Job` into its submit-request dict."""
    wire: dict[str, Any] = {
        "kind": job.kind,
        "config": job.config.name,
        "workload": job.workload,
        "seed": job.seed,
        "ranks": job.ranks,
        "params": dict(job.params),
    }
    if job.timeout_s is not None:
        wire["timeout_s"] = job.timeout_s
    return wire


def job_from_wire(wire: dict[str, Any]) -> Job:
    """Rebuild a :class:`Job` from its wire dict (server side).

    Raises :class:`ServeError` on malformed specs so the server can
    reject a bad submit without touching the scheduler.
    """
    from ..soc import get_config

    if not isinstance(wire, dict):
        raise ServeError(f"job spec must be an object, got "
                         f"{type(wire).__name__}")
    kind = wire.get("kind", "kernel")
    workload = wire.get("workload")
    if not workload:
        raise ServeError("job spec needs a 'workload'")
    params = dict(wire.get("params") or {})
    timeout_s = wire.get("timeout_s")
    try:
        config = get_config(str(wire.get("config", "Rocket1")))
    except KeyError as exc:
        raise ServeError(str(exc)) from None
    try:
        if kind == "kernel":
            return Job.kernel(
                config, str(workload),
                scale=float(params.get("scale", wire.get("scale", 1.0))),
                seed=int(wire.get("seed", 0)),
                warmup=bool(params.get("warmup", True)),
                timeout_s=timeout_s,
                quantum=(int(params["quantum"])
                         if params.get("quantum") is not None
                         else (int(wire["quantum"])
                               if wire.get("quantum") is not None else None)),
                chunk=(int(params["chunk"])
                       if params.get("chunk") is not None else None))
        if kind == "npb":
            return Job.npb(config, str(workload),
                           ranks=int(wire.get("ranks", 1)),
                           npb_class=str(params.get("cls", "A")),
                           timeout_s=timeout_s)
        if kind == "checkprog":
            return Job.checkprog(config, str(workload),
                                 source=str(params.get("source", "")),
                                 base=int(params.get("base", 0x1_0000)),
                                 fuel=int(params.get("fuel", 200_000)),
                                 timeout_s=timeout_s)
        if kind == "selftest":
            extra = {k: v for k, v in params.items()}
            return Job.selftest(mode=str(workload), config=config,
                                timeout_s=timeout_s, **extra)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"bad job spec: {exc}") from None
    raise ServeError(f"unknown job kind {kind!r}")
