"""Config-batched sweep engine: one compiled trace, every config over it.

A configuration sweep re-simulates the *same* dynamic micro-op stream
under N timing configurations.  The serial path pays the full per-config
cost N times — trace build, numpy decode, per-uop classification.
:func:`batched_sweep` pays it once: the trace is compiled a single time
(:func:`~repro.accel.compile.shared_compiled` — shareable across
processes through a :class:`~repro.farm.store.SharedResultStore`) and
every config then runs over that compiled form, one after another in
input order, through the ordinary ``System.run`` (``InOrderCore.run``
or ``OoOCore.run``).

Bit-identity with per-config ``Job.kernel`` runs is by construction —
same memo keys, same ``System.run``, same payload constructor — and the
``batch`` tier of :mod:`repro.check` enforces it end to end
(``repro check --tiers batch``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

__all__ = ["batched_sweep"]


def batched_sweep(configs: Sequence[Any], kernel: str, scale: float = 1.0,
                  seed: int = 0, *, warmup: bool = True, store=None,
                  on_point: Optional[Callable[[str, dict], None]] = None,
                  skip: Sequence[str] = ()) -> dict[str, dict[str, Any]]:
    """Evaluate every config of a sweep over one compiled trace.

    Returns ``{config.name: payload}`` where each payload is
    bit-identical to what :func:`repro.farm.job.execute_job` produces
    for the matching ``Job.kernel`` — same memo keys, same telemetry
    stripping, same CPI stack — so batched sweep points are
    interchangeable with serial ones everywhere (result cache, figure
    drivers, the farm).

    *on_point* fires once per completed config, in input order (a memo
    hit counts as completed) — the hook the sweep job kind uses for
    mid-run checkpointing and fault injection.  *skip* names configs
    whose payloads the caller already holds (checkpoint resume).
    """
    from ..farm.job import kernel_payload
    from ..soc.system import System
    from ..telemetry import StatsRegistry
    from ..workloads.microbench import get_kernel
    from . import memo
    from .compile import shared_compiled

    names = [cfg.name for cfg in configs]
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        raise ValueError(
            f"sweep configs must have unique names, got duplicates: "
            f"{sorted(dup)}")

    kern = get_kernel(kernel)
    if kern.spec.broken:
        raise RuntimeError(f"kernel {kern.spec.name} is marked broken")
    todo = [cfg for cfg in configs if cfg.name not in set(skip)]
    if not todo:
        return {}
    eff_scale = max(float(scale), kern.min_harness_scale)
    trace = shared_compiled(kernel, eff_scale, seed,
                            lambda: kern.build(scale=eff_scale, seed=seed),
                            store=store)
    do_warmup = bool(warmup and kern.needs_warmup)

    points: dict[str, dict[str, Any]] = {}
    for cfg in todo:
        system = System(cfg)
        registry = StatsRegistry(system)
        mkey = payload = None
        if memo.memo_enabled():
            mkey = memo.memo_key(trace, cfg, system.uncore,
                                 extra=("farm_kernel", do_warmup))
            payload = memo.memo_get(mkey)
        if payload is not None:
            payload["workload"] = kern.spec.name
            payload["seed"] = seed
            payload["scale"] = eff_scale
        else:
            if do_warmup:
                system.run(trace)
            base = registry.snapshot()
            result = system.run(trace)
            payload = kernel_payload(cfg, kern, seed, eff_scale, registry,
                                     base, result, system)
            if mkey is not None:
                memo.memo_put(mkey, payload)
        points[cfg.name] = payload
        if on_point is not None:
            on_point(cfg.name, payload)
    return points
