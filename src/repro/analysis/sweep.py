"""Parameter sweeps: run one kernel across configurations or knob values.

The experiment registry reproduces the paper's fixed design points; sweeps
answer the follow-on questions ("how does MM scale with tCTRL?", "where
does the L1-size benefit saturate?") with one call each.

Every sweep routes through :mod:`repro.farm`, so ``workers=4`` shards the
points across processes and a ``cache`` turns repeated sweeps into disk
reads — with results guaranteed identical to the serial, uncached path.
The decoded workload trace is built once and shared across every
configuration point via :mod:`repro.accel.memo`, and repeated points are
served from the in-process result memo.

``batched=True`` goes one step further: the whole sweep becomes a single
:meth:`~repro.farm.job.Job.sweep` job handled by the config-batched
engine (:func:`repro.accel.batch.batched_sweep`) — the trace is compiled
once and every configuration runs over the compiled form, with
per-point results bit-identical to the per-config jobs (the
``batch`` tier of ``repro check`` enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..farm import Job, run_jobs
from ..farm.cache import ResultCache
from ..soc.config import SoCConfig
from ..soc.fragments import Fragment, compose

__all__ = ["SweepPoint", "SweepResult", "sweep_configs", "sweep_knob"]


@dataclass(frozen=True)
class SweepPoint:
    """One (setting, measurement) pair."""

    label: str
    cycles: int
    seconds: float

    @property
    def row(self) -> dict[str, object]:
        return {"Setting": self.label, "Cycles": self.cycles,
                "us": self.seconds * 1e6}


@dataclass
class SweepResult:
    """Ordered sweep measurements for one kernel."""

    kernel: str
    points: list[SweepPoint] = field(default_factory=list)

    def rows(self) -> list[dict[str, object]]:
        return [p.row for p in self.points]

    def speedup(self) -> float:
        """First setting's time over the last's (the sweep's total effect)."""
        if len(self.points) < 2:
            return 1.0
        return self.points[0].seconds / self.points[-1].seconds

    def best(self) -> SweepPoint:
        return min(self.points, key=lambda p: p.seconds)


def _check_labels(labelled: Sequence[tuple[str, SoCConfig]]) -> None:
    """Sweep labels key result rows and config names key batched payloads
    — a collision silently merges distinct design points, so refuse it."""
    labels = [label for label, _ in labelled]
    dup = {x for x in labels if labels.count(x) > 1}
    if dup:
        raise ValueError(
            f"sweep values produce duplicate labels {sorted(dup)}; "
            "pass distinct values (or values with distinct str() forms)")
    names = [cfg.name for _, cfg in labelled]
    dup = {x for x in names if names.count(x) > 1}
    if dup:
        raise ValueError(
            f"sweep configs must have unique names, got duplicates: "
            f"{sorted(dup)}")


def _farm_sweep(kernel: str, labelled: Sequence[tuple[str, SoCConfig]],
                scale: float, seed: int, workers: int | None,
                cache: ResultCache | str | None,
                batched: bool = False) -> SweepResult:
    """Farm one kernel over labelled configs; points keep input order."""
    _check_labels(labelled)
    if batched:
        job = Job.sweep([cfg for _, cfg in labelled], kernel,
                        scale=scale, seed=seed)
        results = run_jobs([job], workers=workers, cache=cache, strict=True)
        points = results[0].payload["points"]
        return SweepResult(
            kernel=kernel,
            points=[
                SweepPoint(label=label, cycles=points[cfg.name]["cycles"],
                           seconds=points[cfg.name]["seconds"])
                for label, cfg in labelled
            ],
        )
    jobs = [Job.kernel(cfg, kernel, scale=scale, seed=seed)
            for _, cfg in labelled]
    results = run_jobs(jobs, workers=workers, cache=cache, strict=True)
    return SweepResult(
        kernel=kernel,
        points=[
            SweepPoint(label=label, cycles=r.payload["cycles"],
                       seconds=r.payload["seconds"])
            for (label, _), r in zip(labelled, results)
        ],
    )


def sweep_configs(configs: Sequence[SoCConfig], kernel: str,
                  scale: float = 1.0, seed: int = 0, *,
                  workers: int | None = None,
                  cache: ResultCache | str | None = None,
                  batched: bool = False) -> SweepResult:
    """Run *kernel* on each config (the fig-1/fig-2 inner loop, exposed).

    With ``batched=True`` the whole sweep runs as one config-batched job:
    the kernel's trace is compiled once and every config runs over the
    compiled form (bit-identical to per-config jobs, and typically >2x
    faster across a full config set).
    """
    return _farm_sweep(kernel, [(cfg.name, cfg) for cfg in configs],
                       scale, seed, workers, cache, batched=batched)


def sweep_knob(base: SoCConfig, make_fragment: Callable[[object], Fragment],
               values: Iterable[object], kernel: str,
               scale: float = 1.0, seed: int = 0, *,
               workers: int | None = None,
               cache: ResultCache | str | None = None,
               batched: bool = False) -> SweepResult:
    """Sweep one knob: ``make_fragment(v)`` builds the override per value.

    Values must map to distinct labels: two values with the same ``str()``
    form (e.g. ``1`` and ``True``, or two objects sharing a ``__str__``)
    would silently collapse into one indistinguishable row, so that
    raises :class:`ValueError` instead.

    >>> from repro.soc.fragments import WithL2Banks
    >>> sweep_knob(ROCKET1, WithL2Banks, [1, 2, 4, 8], "ML2_BW_ld")
    """
    labelled = [
        (str(v), compose(base, make_fragment(v), name=f"{base.name}[{v}]"))
        for v in values
    ]
    return _farm_sweep(kernel, labelled, scale, seed, workers, cache,
                       batched=batched)
