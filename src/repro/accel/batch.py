"""A kernel sweep in one process: one ``Job.kernel`` point per config.

:func:`batched_sweep` builds (or fetches) the kernel's trace once
through :func:`~repro.accel.memo.shared_trace` and runs every config
over it, one after another in input order, through the same per-point
body as a monolithic ``Job.kernel`` run.  The core loop compiles the
trace on its first run and keeps the compiled form on the trace, so
every later config reuses it.

Bit-identity with per-config ``Job.kernel`` runs is by construction —
one body, one memo key, one payload constructor — and the ``batch``
tier of :mod:`repro.check` enforces it end to end
(``repro check --tiers batch``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

__all__ = ["batched_sweep"]


def batched_sweep(configs: Sequence[Any], kernel: str, scale: float = 1.0,
                  seed: int = 0, *, warmup: bool = True,
                  on_point: Optional[Callable[[str, dict], None]] = None,
                  skip: Sequence[str] = ()) -> dict[str, dict[str, Any]]:
    """Evaluate every config of a sweep over one shared trace.

    Returns ``{config.name: payload}`` where each payload is
    bit-identical to what :func:`repro.farm.job.execute_job` produces
    for the matching ``Job.kernel``, so sweep points are interchangeable
    with kernel jobs everywhere (result cache, figure drivers, the farm).

    *on_point* fires once per completed config, in input order (a memo
    hit counts as completed) — the hook the sweep job kind uses for
    mid-run checkpointing and fault injection.  *skip* names configs
    whose payloads the caller already holds (checkpoint resume).
    """
    from ..farm.job import _check_unique_names, _kernel_point
    from ..workloads.microbench import get_kernel
    from . import memo

    _check_unique_names(configs)
    kern = get_kernel(kernel)
    if kern.spec.broken:
        raise RuntimeError(f"kernel {kern.spec.name} is marked broken")
    todo = [cfg for cfg in configs if cfg.name not in set(skip)]
    if not todo:
        return {}
    eff_scale = max(float(scale), kern.min_harness_scale)
    trace = memo.shared_trace(kernel, eff_scale, seed,
                              lambda: kern.build(scale=eff_scale, seed=seed))
    do_warmup = bool(warmup and kern.needs_warmup)

    points: dict[str, dict[str, Any]] = {}
    for cfg in todo:
        payload = _kernel_point(cfg, kern, trace, seed, eff_scale, do_warmup)
        points[cfg.name] = payload
        if on_point is not None:
            on_point(cfg.name, payload)
    return points
